//! Timing-model behaviour: barrier accounting, per-epoch setup cost, and
//! network-load feedback.

use tpi_compiler::{mark_program, CompilerOptions};
use tpi_ir::{subs, ProgramBuilder};
use tpi_proto::{build_engine, EngineConfig, SchemeId};
use tpi_sim::{run_trace, SimOptions, SimResult};
use tpi_trace::{generate_trace, Trace, TraceOptions};

fn simulate(build: impl FnOnce(&mut ProgramBuilder) -> tpi_ir::ProcIdx, setup: u64) -> SimResult {
    let mut p = ProgramBuilder::new();
    let main = build(&mut p);
    let prog = p.finish(main).unwrap();
    let marking = mark_program(&prog, &CompilerOptions::default());
    let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
    let mut engine = build_engine(
        SchemeId::TPI,
        EngineConfig::paper_default(trace.layout.total_words()),
    );
    run_trace(
        &trace,
        engine.as_mut(),
        &SimOptions {
            epoch_setup_cycles: setup,
        },
    )
}

fn trace_of(build: impl FnOnce(&mut ProgramBuilder) -> tpi_ir::ProcIdx) -> Trace {
    let mut p = ProgramBuilder::new();
    let main = build(&mut p);
    let prog = p.finish(main).unwrap();
    let marking = mark_program(&prog, &CompilerOptions::default());
    generate_trace(&prog, &marking, &TraceOptions::default()).unwrap()
}

#[test]
fn epoch_setup_is_charged_once_per_epoch() {
    let build = |p: &mut ProgramBuilder| {
        let a = p.shared("A", [64]);
        p.proc("main", |f| {
            for _ in 0..3 {
                f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
            }
        })
    };
    let r0 = simulate(build, 0);
    let build2 = |p: &mut ProgramBuilder| {
        let a = p.shared("A", [64]);
        p.proc("main", |f| {
            for _ in 0..3 {
                f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
            }
        })
    };
    let r1000 = simulate(build2, 1000);
    assert_eq!(r0.epochs, 3);
    assert_eq!(
        r1000.total_cycles - r0.total_cycles,
        3 * 1000,
        "setup cost must be linear in epochs"
    );
}

#[test]
fn total_time_bounds_busy_time() {
    let r = simulate(
        |p| {
            let a = p.shared("A", [256]);
            p.proc("main", |f| {
                f.doall(0, 255, |i, f| f.store(a.at(subs![i]), vec![], 3));
                f.doall(0, 255, |i, f| f.load(vec![a.at(subs![i])], 3));
            })
        },
        100,
    );
    for &b in &r.busy_cycles {
        assert!(b <= r.total_cycles);
    }
    // The barrier means total >= the busiest processor + per-epoch setup.
    let max_busy = r.busy_cycles.iter().copied().max().unwrap();
    assert!(r.total_cycles >= max_busy + r.epochs * 100);
}

#[test]
fn serial_epochs_gate_everyone() {
    // One long serial epoch: every processor's end time is the barrier
    // after proc 0 finishes, so total far exceeds the idle procs' busy time.
    let r = simulate(
        |p| {
            let a = p.shared("A", [2048]);
            p.proc("main", |f| {
                f.serial(0, 2047, |i, f| f.store(a.at(subs![i]), vec![], 8));
                f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
            })
        },
        100,
    );
    assert!(r.busy_cycles[0] > 0);
    // Processors 1.. did nothing in epoch 0 and little in epoch 1.
    assert!(
        r.busy_cycles[0] > 4 * r.busy_cycles[8],
        "P0 {} vs P8 {}",
        r.busy_cycles[0],
        r.busy_cycles[8]
    );
}

#[test]
fn write_heavy_epochs_slow_later_reads() {
    // Same read epoch, preceded by either a tiny or a huge write epoch:
    // the Kruskal–Snir load estimate from the writes must raise the read
    // epoch's miss latencies.
    let light = trace_of(|p| {
        let a = p.shared("A", [4096]);
        let b = p.shared("B", [64]);
        p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(b.at(subs![i]), vec![], 1));
            f.doall(0, 4095, |i, f| f.load(vec![a.at(subs![i])], 1));
        })
    });
    let heavy = trace_of(|p| {
        let a = p.shared("A", [4096]);
        let b = p.shared("B", [4096]);
        p.proc("main", |f| {
            f.doall(0, 4095, |i, f| {
                // Many redundant writes: pure network load.
                f.serial(0, 15, |_k, f| f.store(b.at(subs![i]), vec![], 1));
            });
            f.doall(0, 4095, |i, f| f.load(vec![a.at(subs![i])], 1));
        })
    });
    let run = |t: &Trace| {
        let mut e = build_engine(
            SchemeId::TPI,
            EngineConfig::paper_default(t.layout.total_words()),
        );
        run_trace(t, e.as_mut(), &SimOptions::default())
    };
    let rl = run(&light);
    let rh = run(&heavy);
    assert!(
        rh.avg_miss_latency() > rl.avg_miss_latency() + 1.0,
        "load feedback missing: {} vs {}",
        rh.avg_miss_latency(),
        rl.avg_miss_latency()
    );
}
