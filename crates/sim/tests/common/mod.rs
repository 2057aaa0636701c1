//! Traces, engine configurations and result comparisons shared by the
//! replay tests.

#![allow(dead_code)]

use tpi_compiler::{mark_program, CompilerOptions};
use tpi_ir::{subs, Cond, Program, ProgramBuilder};
use tpi_mem::{ArrayDecl, Epoch, LineGeometry, MemLayout, Sharing};
use tpi_proto::{registry, EngineConfig, SchemeId};
use tpi_sim::SimResult;
use tpi_trace::{generate_trace, EpochEvents, EpochExecKind, Event, Trace, TraceOptions};

/// Every registered scheme.
pub fn all_schemes() -> Vec<SchemeId> {
    registry::global().all().iter().map(|s| s.id()).collect()
}

/// Marks `prog` with the default analysis and traces it under `opts`.
pub fn trace_with(prog: &Program, opts: &TraceOptions) -> Trace {
    let marking = mark_program(prog, &CompilerOptions::default());
    generate_trace(prog, &marking, opts).unwrap()
}

/// `prog` traced on `procs` processors with the default schedule.
pub fn trace_on(prog: &Program, procs: u32) -> Trace {
    trace_with(
        prog,
        &TraceOptions {
            num_procs: procs,
            ..TraceOptions::default()
        },
    )
}

/// Two DOALLs: a producer fills `A`, a consumer reads it into `B`.
pub fn producer_consumer_trace() -> Trace {
    let mut p = ProgramBuilder::new();
    let a = p.shared("A", [256]);
    let b = p.shared("B", [256]);
    let main = p.proc("main", |f| {
        f.doall(0, 255, |i, f| f.store(a.at(subs![i]), vec![], 2));
        f.doall(0, 255, |i, f| {
            f.store(b.at(subs![i]), vec![a.at(subs![i])], 2)
        });
    });
    let prog = p.finish(main).unwrap();
    trace_on(&prog, 16)
}

/// Locks (critical accumulation) plus a doacross pipeline: every scan
/// arm — acquire/release, post/wait, critical writes — appears in some
/// epoch.
pub fn doacross_program() -> Program {
    let mut p = ProgramBuilder::new();
    let a = p.shared("A", [64]);
    let acc = p.shared("ACC", [4]);
    let lock = p.lock();
    let ev = p.event();
    let main = p.proc("main", |f| {
        f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 2));
        f.doall(0, 63, |i, f| {
            f.critical(lock, |f| {
                f.store(acc.at(subs![0]), vec![acc.at(subs![0]), a.at(subs![i])], 3);
            });
        });
        f.doall(0, 15, |i, f| {
            f.if_else(
                // True only at i == 0: the pipeline head has no
                // predecessor to wait on.
                Cond::EveryN {
                    var: i,
                    modulus: i64::MAX,
                    phase: 0,
                },
                |f| {
                    f.store(a.at(subs![i]), vec![a.at(subs![i])], 2);
                },
                |f| {
                    f.wait(ev, i - 1);
                    f.store(a.at(subs![i]), vec![a.at(subs![i - 1]), a.at(subs![i])], 2);
                },
            );
            f.post(ev, i);
        });
    });
    p.finish(main).unwrap()
}

/// A trace assembled by hand, one `Vec` of per-processor streams per
/// epoch, over one 64-word shared array. Its read versions are not
/// consistent with its writes, so replay it with freshness checks off.
pub fn hand_trace(epochs: Vec<Vec<Vec<Event>>>) -> Trace {
    let num_procs = epochs[0].len() as u32;
    let epochs: Vec<EpochEvents> = epochs
        .into_iter()
        .enumerate()
        .map(|(e, per_proc)| EpochEvents {
            epoch: Epoch(e as u64),
            kind: EpochExecKind::Doall {
                iterations: u64::from(num_procs),
            },
            per_proc,
        })
        .collect();
    let stats = Trace::compute_stats(&epochs);
    Trace {
        epochs,
        layout: MemLayout::new(
            vec![ArrayDecl::new("A", vec![64], Sharing::Shared)],
            LineGeometry::new(4),
        ),
        num_procs,
        stats,
        host: Default::default(),
    }
}

/// The paper's engine configuration, resized to `trace`'s machine.
pub fn engine_config(trace: &Trace) -> EngineConfig {
    let mut cfg = EngineConfig::paper_default(trace.layout.total_words());
    cfg.procs = trace.num_procs;
    cfg.net = tpi_net::NetworkConfig::paper_default(trace.num_procs);
    cfg
}

/// Asserts that two runs agree on every field but host wall time.
pub fn assert_identical(a: &SimResult, b: &SimResult, ctx: &str) {
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
    assert_eq!(a.host.events, b.host.events, "{ctx}: host.events");
    assert_eq!(a.host.ops, b.host.ops, "{ctx}: host.ops");
}
