//! Pins "no allocation per access": once an engine has replayed a trace
//! once, replaying it again must not allocate in `read`, `write`,
//! `write_critical` or the run-ahead rule `commutes` the heap replay asks
//! before it. Engine state lives in dense address tables and an arena
//! cache that a warm engine only reuses, so a heap allocation on the
//! per-access path is a regression. Epoch boundaries are not counted.
//!
//! This binary has its own counting global allocator, so it holds exactly
//! one test: the harness runs it alone.

mod common;

use common::{all_schemes, engine_config, trace_on};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tpi_proto::{build_engine, CoherenceEngine, EngineConfig, EpochRefs, L1Config, SchemeId};
use tpi_trace::{Event, Trace};
use tpi_workloads::{Kernel, Scale};

/// Counts the allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Replays `trace` on `engine`, processor by processor within each epoch.
/// Returns the allocations made inside the access calls, with the first
/// event that allocated.
fn replay(engine: &mut dyn CoherenceEngine, trace: &Trace) -> (u64, Option<String>) {
    let mut clocks = vec![0u64; trace.num_procs as usize];
    let mut total = 0;
    let mut first = None;
    let (span, granule) = (trace.layout.total_words(), trace.layout.geometry());
    let mut refs = EpochRefs::new(trace.num_procs, span, granule);
    for (e, epoch) in trace.epochs.iter().enumerate() {
        refs.begin_epoch();
        for (p, events) in epoch.per_proc.iter().enumerate() {
            for ev in events {
                if let Event::Read { addr, .. }
                | Event::Write { addr, .. }
                | Event::CriticalWrite { addr, .. } = *ev
                {
                    refs.record(tpi_mem::ProcId(p as u32), addr);
                }
            }
        }
        for (p, events) in epoch.per_proc.iter().enumerate() {
            let proc = tpi_mem::ProcId(p as u32);
            for (i, ev) in events.iter().enumerate() {
                let now = clocks[p];
                let before = allocations();
                let stall = match *ev {
                    Event::Read {
                        addr,
                        kind,
                        version,
                    } => {
                        let _ = engine.commutes(proc, addr, false, &refs);
                        engine.read(proc, addr, kind, version, now).stall
                    }
                    Event::Write { addr, version } => {
                        let _ = engine.commutes(proc, addr, true, &refs);
                        engine.write(proc, addr, version, now)
                    }
                    Event::CriticalWrite { addr, version } => {
                        let _ = engine.commutes(proc, addr, true, &refs);
                        engine.write_critical(proc, addr, version, now)
                    }
                    Event::Compute(cycles) => u64::from(cycles),
                    _ => 0,
                };
                let made = allocations() - before;
                if made > 0 && first.is_none() {
                    first = Some(format!("epoch {e}, P{p}, event {i}: {ev:?}"));
                }
                total += made;
                clocks[p] = now + stall;
            }
        }
        let end = clocks.iter().copied().max().unwrap_or(0);
        let _ = engine.epoch_boundary(&clocks);
        engine.network_mut().end_epoch(end.max(1));
        clocks.fill(end);
    }
    (total, first)
}

#[test]
fn warm_engines_do_not_allocate_per_access() {
    // MDG has lock-guarded critical writes as well as shared reads and
    // writes, so every access entry point is exercised.
    let trace = trace_on(&Kernel::Mdg.build(Scale::Test), 16);
    let mut cfg = engine_config(&trace);
    // The second pass replays versions the engine has already moved past;
    // this test is about allocation, not freshness.
    cfg.verify_freshness = false;
    let two_level = EngineConfig {
        l1: Some(L1Config::paper_default()),
        ..cfg.clone()
    };
    let mut runs: Vec<(String, EngineConfig, SchemeId)> = all_schemes()
        .into_iter()
        .map(|s| (s.to_string(), cfg.clone(), s))
        .collect();
    runs.push(("TPI+L1".to_owned(), two_level, SchemeId::TPI));
    let before = allocations();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(allocations(), before + 1, "the counting allocator counts");
    let mut failures = Vec::new();
    for (name, cfg, scheme) in runs {
        let mut engine = build_engine(scheme, cfg);
        let _ = replay(engine.as_mut(), &trace);
        let (warm, first) = replay(engine.as_mut(), &trace);
        if warm > 0 {
            failures.push(format!(
                "{name}: {warm} allocation(s), first at {}",
                first.unwrap_or_default()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
