//! Per-operation costs of the simulator layers, measured on one recorded
//! trace of the workload's own kind (the "probe" of the traced run).
//!
//! * `trace`: interpreter nanoseconds per emitted event.
//! * `proto`: the engine alone. The probe drives one recorded trace flat,
//!   processor by processor, through `CoherenceEngine::read`/`write`/
//!   `write_critical`/`epoch_boundary`, so no replay-loop work is counted.
//! * `sim`: `run_trace` per event, and that minus the engine-only cost —
//!   the replay loop's own share.
//! * sharded replay: `run_trace_sharded` with two shards, inline and on
//!   two threads, against serial `run_trace`.

use crate::metrics::{Metrics, SCHEMES};
use crate::sim::Cell;
use crate::span::Tracer;
use crate::stats::median;
use std::time::Instant;
use tpi_compiler::mark_program;
use tpi_mem::ProcId;
use tpi_proto::{build_engine, registry, CoherenceEngine, EngineConfig, SchemeId};
use tpi_sim::{run_trace, run_trace_sharded, ShardExec, ShardOptions};
use tpi_trace::{generate_trace, Event, Trace};

/// Which traces the probe measures on.
pub struct ProbeSpec {
    /// Source of the per-scheme engine and replay costs.
    pub cell: Cell,
    /// Source of the sharded-replay speedups (the workload's largest
    /// machine).
    pub shard_cell: Cell,
}

/// Probe span ids start here, clear of cell and request ids.
const PROBE_ID: u64 = 1 << 40;

/// Median wall nanoseconds of `f`: three runs, or one when a single run
/// already takes half a second.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_nanos() as f64);
        if times[0] > 5e8 {
            break;
        }
    }
    median(&times)
}

fn scheme_id(name: &str) -> SchemeId {
    registry::global()
        .lookup(name)
        .map(|s| s.id())
        .unwrap_or_else(|e| panic!("{e}"))
}

fn interpret(t: &Tracer, cell: &Cell) -> (Trace, f64) {
    let cfg = &cell.config;
    let program = cell.kernel.build(cell.scale);
    let marking = mark_program(&program, &cfg.compiler_options());
    let mut trace = None;
    let ns = time_ns(|| {
        trace = Some(
            t.span("trace", "generate_trace", PROBE_ID, || {
                generate_trace(&program, &marking, &cfg.trace_options())
            })
            .expect("probe kernels are race-free"),
        );
    });
    (trace.expect("interpreted at least once"), ns)
}

fn engine_config(cell: &Cell, scheme: SchemeId, trace: &Trace) -> EngineConfig {
    let mut cfg = cell.config;
    cfg.scheme = scheme;
    let mut engine = cfg.engine_config(trace.layout.total_words());
    // The flat drive does not interleave processors, so the freshness
    // oracle (on in debug builds) would flag orders no real run produces.
    engine.verify_freshness = false;
    engine
}

/// Drives `trace` through `engine` one processor at a time per epoch;
/// returns the number of engine accesses.
pub fn drive_flat(trace: &Trace, engine: &mut dyn CoherenceEngine) -> u64 {
    let procs = trace.num_procs as usize;
    let mut clocks = vec![0u64; procs];
    let mut start = 0;
    let mut accesses = 0;
    for epoch in &trace.epochs {
        clocks.fill(start);
        for (p, stream) in epoch.per_proc.iter().enumerate() {
            let proc = ProcId(p as u32);
            let mut now = clocks[p];
            for ev in stream {
                now += match ev {
                    Event::Compute(c) => u64::from(*c),
                    Event::Read {
                        addr,
                        kind,
                        version,
                    } => {
                        accesses += 1;
                        engine.read(proc, *addr, *kind, *version, now).stall
                    }
                    Event::Write { addr, version } => {
                        accesses += 1;
                        engine.write(proc, *addr, *version, now)
                    }
                    Event::CriticalWrite { addr, version } => {
                        accesses += 1;
                        engine.write_critical(proc, *addr, *version, now)
                    }
                    _ => 1,
                };
            }
            clocks[p] = now;
        }
        let stalls = engine.epoch_boundary(&clocks);
        let end = clocks
            .iter()
            .zip(&stalls)
            .map(|(c, s)| c + s)
            .max()
            .unwrap_or(start);
        engine.network_mut().end_epoch(end - start);
        start = end;
    }
    accesses
}

pub fn sim_probe(t: &Tracer, spec: &ProbeSpec) -> Metrics {
    let mut m = Metrics::default();
    let (trace, interp_ns) = interpret(t, &spec.cell);
    let events: u64 = trace.epochs.iter().map(|e| e.len() as u64).sum();
    m.set("trace.events", events as f64);
    m.set("trace.ns_per_event", interp_ns / events as f64);
    let opts = spec.cell.config.sim_options();
    for name in SCHEMES {
        let scheme = scheme_id(name);
        let cfg = engine_config(&spec.cell, scheme, &trace);
        let mut accesses = 0;
        let engine_ns = time_ns(|| {
            let mut engine = build_engine(scheme, cfg.clone());
            accesses = t.span("proto", "CoherenceEngine (flat drive)", PROBE_ID, || {
                drive_flat(&trace, engine.as_mut())
            });
        });
        let replay_ns = time_ns(|| {
            let mut engine = build_engine(scheme, cfg.clone());
            t.span("sim", "run_trace", PROBE_ID, || {
                run_trace(&trace, engine.as_mut(), &opts)
            });
        });
        m.set(
            format!("proto.{name}.ns_per_access"),
            engine_ns / accesses.max(1) as f64,
        );
        m.set(
            format!("sim.{name}.ns_per_event"),
            replay_ns / events as f64,
        );
        m.set(
            format!("sim.{name}.loop_ns_per_event"),
            (replay_ns - engine_ns) / events as f64,
        );
    }
    let (big, _) = interpret(t, &spec.shard_cell);
    let opts = spec.shard_cell.config.sim_options();
    for (name, scheme) in [("tpi", SchemeId::TPI), ("hw", SchemeId::FULL_MAP)] {
        let cfg = engine_config(&spec.shard_cell, scheme, &big);
        let serial = time_ns(|| {
            let mut engine = build_engine(scheme, cfg.clone());
            t.span("sim", "run_trace", PROBE_ID, || {
                run_trace(&big, engine.as_mut(), &opts)
            });
        });
        for (label, exec) in [
            ("inline", ShardExec::Inline),
            ("threads2", ShardExec::Threads),
        ] {
            let shard = ShardOptions { shards: 2, exec };
            let sharded = time_ns(|| {
                t.span("sim", "run_trace_sharded", PROBE_ID, || {
                    run_trace_sharded(&big, scheme, &cfg, &opts, &shard)
                });
            });
            m.set(
                format!("sim.sharded.{name}.{label}_speedup"),
                serial / sharded,
            );
        }
    }
    m
}
