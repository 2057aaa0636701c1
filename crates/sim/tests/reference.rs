//! `run_trace` against `run_trace_reference`, the min-clock scan over
//! every epoch. Heap replay is exact only if every field of the
//! result — host event and op counts included — matches the scan's, for
//! every scheme, on kernels with locks, doacross, false sharing and wide
//! machines, and on hand traces built so that a processor running ahead
//! past a state another processor depends on would change the result.

mod common;

use common::{
    all_schemes, assert_identical, doacross_program, engine_config, hand_trace, trace_on,
    trace_with,
};
use std::cell::RefCell;
use tpi_ir::Program;
use tpi_mem::{ArrayDecl, Cycle, LineGeometry, MemLayout, ProcId, ReadKind, Sharing, WordAddr};
use tpi_proto::{
    build_engine, AccessOutcome, CoherenceEngine, EngineConfig, EngineStats, EpochRefs,
};
use tpi_sim::{run_trace, run_trace_reference, SimOptions, SimResult};
use tpi_testkit::prelude::*;
use tpi_trace::{Event, SchedulePolicy, Trace, TraceOptions};
use tpi_workloads::{Kernel, Scale};

const PROCS: [u32; 4] = [1, 3, 16, 64];

/// Runs `trace` both ways under every scheme and compares everything.
fn assert_matches_reference(trace: &Trace, cfg: &EngineConfig, ctx: &str) {
    let opts = SimOptions::default();
    for scheme in all_schemes() {
        let run = |reference: bool| -> SimResult {
            let mut engine = build_engine(scheme, cfg.clone());
            if reference {
                run_trace_reference(trace, engine.as_mut(), &opts)
            } else {
                run_trace(trace, engine.as_mut(), &opts)
            }
        };
        assert_identical(&run(false), &run(true), &format!("{ctx}/{scheme}"));
    }
}

fn pin_grid(name: &str, prog: &Program) {
    for procs in PROCS {
        let trace = trace_on(prog, procs);
        assert_matches_reference(&trace, &engine_config(&trace), &format!("{name}/p{procs}"));
    }
}

#[test]
fn mdg_matches_reference() {
    pin_grid("MDG", &Kernel::Mdg.build(Scale::Test));
}

#[test]
fn fshare_matches_reference() {
    pin_grid("FSHARE", &Kernel::FalseShare.build(Scale::Test));
}

#[test]
fn doacross_matches_reference() {
    pin_grid("doacross", &doacross_program());
}

#[test]
fn qcd2_matches_reference() {
    pin_grid("QCD2", &Kernel::Qcd2.build(Scale::Test));
}

#[test]
fn ocean_matches_reference() {
    pin_grid("OCEAN", &Kernel::Ocean.build(Scale::Test));
}

/// An engine wrapper that logs every access as `(proc, word, now)`.
#[derive(Debug, Clone)]
struct Recorder {
    inner: Box<dyn CoherenceEngine>,
    calls: Vec<(u32, u64, Cycle)>,
}

impl CoherenceEngine for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        now: Cycle,
    ) -> AccessOutcome {
        self.calls.push((proc.0, addr.0, now));
        self.inner.read(proc, addr, kind, version, now)
    }
    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.calls.push((proc.0, addr.0, now));
        self.inner.write(proc, addr, version, now)
    }
    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.calls.push((proc.0, addr.0, now));
        self.inner.write_critical(proc, addr, version, now)
    }
    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        self.inner.epoch_boundary(per_proc_now)
    }
    fn network(&self) -> &tpi_net::Network {
        self.inner.network()
    }
    fn network_mut(&mut self) -> &mut tpi_net::Network {
        self.inner.network_mut()
    }
    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }
    fn order_insensitive(&self) -> bool {
        self.inner.order_insensitive()
    }
}

/// The access log of one replay of `trace` under `scheme`.
fn calls(
    trace: &Trace,
    cfg: &EngineConfig,
    scheme: &str,
    reference: bool,
) -> Vec<(u32, u64, Cycle)> {
    let id = tpi_proto::registry::global().lookup(scheme).unwrap().id();
    let mut rec = Recorder {
        inner: build_engine(id, cfg.clone()),
        calls: Vec::new(),
    };
    let opts = SimOptions::default();
    if reference {
        run_trace_reference(trace, &mut rec, &opts);
    } else {
        run_trace(trace, &mut rec, &opts);
    }
    rec.calls
}

const ORDER_SENSITIVE: [&str; 4] = ["hw", "ll", "tardis", "hybrid"];

#[test]
fn heap_makes_the_scans_engine_calls_in_the_scans_order() {
    for prog in [
        Kernel::FalseShare.build(Scale::Test),
        Kernel::Ocean.build(Scale::Test),
        doacross_program(),
    ] {
        let trace = trace_on(&prog, 16);
        let cfg = engine_config(&trace);
        for scheme in ORDER_SENSITIVE {
            let got = calls(&trace, &cfg, scheme, false);
            assert!(!got.is_empty());
            assert_eq!(got, calls(&trace, &cfg, scheme, true), "{scheme}");
        }
    }
}

fn read(word: u64) -> Event {
    Event::Read {
        addr: WordAddr(word),
        kind: ReadKind::TimeRead { distance: 0 },
        version: 0,
    }
}

fn write(word: u64, version: u64) -> Event {
    Event::Write {
        addr: WordAddr(word),
        version,
    }
}

/// Hand traces carry arbitrary versions: no freshness oracle.
fn unverified(trace: &Trace) -> EngineConfig {
    let mut cfg = engine_config(trace);
    cfg.verify_freshness = false;
    cfg
}

#[test]
fn equal_clocks_break_ties_to_the_lowest_index() {
    // Every processor starts the epoch on the same line at the same
    // clock; the lowest index issues first, then each in turn.
    let stream = |p: u64| vec![read(0), Event::Compute(0), read(1), write(8 + p, 1)];
    let trace = hand_trace(vec![(0..4).map(stream).collect()]);
    let cfg = unverified(&trace);
    assert_matches_reference(&trace, &cfg, "ties");
    for scheme in ORDER_SENSITIVE {
        let got = calls(&trace, &cfg, scheme, false);
        assert_eq!(
            got[..4],
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
            "{scheme}"
        );
    }
}

#[test]
fn only_one_processor_has_events() {
    let lone = vec![read(8), read(9), write(10, 2), Event::Compute(0), read(11)];
    let trace = hand_trace(vec![vec![vec![], vec![], lone, vec![]]]);
    assert_matches_reference(&trace, &unverified(&trace), "lone");
}

#[test]
fn streams_end_mid_epoch_around_zero_cycle_computes() {
    let c0 = Event::Compute(0);
    let trace = hand_trace(vec![
        vec![
            vec![c0.clone()],
            vec![
                read(8),
                c0.clone(),
                c0.clone(),
                write(9, 3),
                read(12),
                read(16),
            ],
            vec![Event::Compute(5), read(9)],
            vec![c0.clone(), c0.clone(), read(8), write(13, 2)],
        ],
        vec![
            vec![read(9), Event::Compute(7), read(0), read(13)],
            vec![c0.clone()],
            vec![],
            vec![read(12), write(9, 4), c0.clone(), read(8)],
        ],
        // An epoch with no events at all.
        vec![vec![], vec![], vec![], vec![]],
        vec![
            vec![read(13)],
            vec![],
            vec![c0.clone(), read(13)],
            vec![read(9)],
        ],
    ]);
    assert_matches_reference(&trace, &unverified(&trace), "ragged");
}

/// `trace`'s unverified configuration with a `bytes`-byte, `assoc`-way
/// cache, so that lines a few apart share a set.
fn small_cache(trace: &Trace, bytes: usize, assoc: u32) -> EngineConfig {
    let mut cfg = unverified(trace);
    cfg.cache.size_bytes = bytes;
    cfg.cache.assoc = assoc;
    cfg
}

// In the hand traces below, P1 (or P2) computes for 10 cycles and P0 for
// 50, so the min-clock order issues the other processor's access first;
// P0, popped first on the tie at the epoch's start, would run ahead
// through its access if the engines' rules missed the hazard. With
// 4-word lines in an 8-line direct-mapped cache, words 0 and 32 (lines 0
// and 8) share a set.

#[test]
fn run_ahead_is_refused_on_a_line_another_processor_holds() {
    // P1 leaves line 0 dirty (HW owner) or cached (HYB sharer, TARDIS)
    // in epoch 0. In epoch 1 only P0 references line 0, but P1 evicts it
    // at cycle 10: P0's read or write must see the eviction done, not
    // downgrade, transfer or update P1's copy first.
    for access in [read(2), write(1, 2)] {
        let trace = hand_trace(vec![
            vec![vec![], vec![write(0, 1)]],
            vec![
                vec![Event::Compute(50), access.clone()],
                vec![Event::Compute(10), read(32)],
            ],
        ]);
        let ctx = format!("holder/{access:?}");
        assert_matches_reference(&trace, &small_cache(&trace, 128, 1), &ctx);
    }
}

#[test]
fn run_ahead_is_refused_when_the_victim_is_referenced_elsewhere() {
    // P0 caches line 0, then misses on line 8 in the same set; P1 writes
    // line 0 at cycle 10. The eviction must not happen before P1's write
    // (which invalidates or updates P0's copy).
    let trace = hand_trace(vec![
        vec![vec![read(0)], vec![]],
        vec![
            vec![Event::Compute(50), read(32)],
            vec![Event::Compute(10), write(1, 1)],
        ],
    ]);
    assert_matches_reference(&trace, &small_cache(&trace, 128, 1), "victim");
}

#[test]
fn run_ahead_is_refused_in_a_set_another_processor_reorders() {
    // A 2-way set of P0's holds lines 0 and 4 (words 0 and 16); line 8
    // (word 32) maps there too. P1 touches line 4 at cycle 10: a write
    // invalidates P0's copy, a read of P0's dirty line downgrades it and
    // moves it to the front. P0's hit on line 0 and its miss on line 8
    // must follow, or the miss evicts line 4 instead of finding a free
    // way (or evicts the other line).
    for (setup, remote) in [(read(16), write(17, 1)), (write(16, 1), read(17))] {
        let trace = hand_trace(vec![
            vec![vec![read(0), setup.clone()], vec![]],
            vec![
                vec![Event::Compute(50), read(1), read(32)],
                vec![Event::Compute(10), remote.clone()],
            ],
        ]);
        let ctx = format!("2-way/{setup:?}/{remote:?}");
        assert_matches_reference(&trace, &small_cache(&trace, 128, 2), &ctx);
    }
}

#[test]
fn private_replicas_of_a_narrower_layout_are_not_one_processors_lines() {
    // A 36-word shared segment laid out in 4-word lines, so processor
    // q's private replica sits at 36 (q + 1). An engine with 8-word lines
    // sees words 104..112 as one line, half P1's replica and half P2's.
    let mut trace = hand_trace(vec![
        vec![vec![], vec![write(104, 1)], vec![]],
        vec![
            vec![],
            vec![Event::Compute(50), write(105, 1)],
            vec![Event::Compute(10), write(108, 1)],
        ],
    ]);
    trace.layout = MemLayout::new(
        vec![ArrayDecl::new("A", vec![36], Sharing::Shared)],
        LineGeometry::new(4),
    );
    let mut cfg = unverified(&trace);
    cfg.cache.geometry = LineGeometry::new(8);
    assert_matches_reference(&trace, &cfg, "straddling replicas");
}

/// Like [`Recorder`], but forwards the run-ahead rule and logs the calls
/// it declared commuting, as `(proc, index among proc's calls)`.
#[derive(Debug, Clone)]
struct RuleRecorder {
    inner: Box<dyn CoherenceEngine>,
    calls: Vec<(u32, u64, Cycle)>,
    per_proc: Vec<usize>,
    declared: RefCell<Vec<(u32, usize)>>,
}

impl RuleRecorder {
    fn log(&mut self, proc: ProcId, addr: WordAddr, now: Cycle) {
        self.calls.push((proc.0, addr.0, now));
        self.per_proc[proc.0 as usize] += 1;
    }
}

impl CoherenceEngine for RuleRecorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        now: Cycle,
    ) -> AccessOutcome {
        self.log(proc, addr, now);
        self.inner.read(proc, addr, kind, version, now)
    }
    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.log(proc, addr, now);
        self.inner.write(proc, addr, version, now)
    }
    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.log(proc, addr, now);
        self.inner.write_critical(proc, addr, version, now)
    }
    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        self.inner.epoch_boundary(per_proc_now)
    }
    fn network(&self) -> &tpi_net::Network {
        self.inner.network()
    }
    fn network_mut(&mut self) -> &mut tpi_net::Network {
        self.inner.network_mut()
    }
    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }
    fn order_insensitive(&self) -> bool {
        self.inner.order_insensitive()
    }
    fn commutes(&self, proc: ProcId, addr: WordAddr, write: bool, refs: &EpochRefs) -> bool {
        let yes = self.inner.commutes(proc, addr, write, refs);
        if yes {
            let next = self.per_proc[proc.0 as usize];
            self.declared.borrow_mut().push((proc.0, next));
        }
        yes
    }
}

#[test]
fn run_ahead_issues_only_declared_calls_ahead_of_the_scan() {
    let opts = SimOptions::default();
    for kernel in [Kernel::FalseShare, Kernel::Ocean, Kernel::Qcd2] {
        let trace = trace_on(&kernel.build(Scale::Test), 16);
        let cfg = engine_config(&trace);
        for scheme in ORDER_SENSITIVE {
            let id = tpi_proto::registry::global().lookup(scheme).unwrap().id();
            let record = |reference: bool| {
                let mut rec = RuleRecorder {
                    inner: build_engine(id, cfg.clone()),
                    calls: Vec::new(),
                    per_proc: vec![0; trace.num_procs as usize],
                    declared: RefCell::new(Vec::new()),
                };
                if reference {
                    run_trace_reference(&trace, &mut rec, &opts);
                } else {
                    run_trace(&trace, &mut rec, &opts);
                }
                rec
            };
            let (heap, scan) = (record(false), record(true));
            let ctx = format!("{kernel:?}/{scheme}");
            // Each processor makes the scan's calls in program order (at
            // the scan's clocks), so the two logs are one multiset.
            let of = |calls: &[(u32, u64, Cycle)], p: u32| -> Vec<(u32, u64, Cycle)> {
                calls.iter().copied().filter(|c| c.0 == p).collect()
            };
            for p in 0..trace.num_procs {
                assert_eq!(of(&heap.calls, p), of(&scan.calls, p), "{ctx}: P{p}");
            }
            let mut sorted = (heap.calls.clone(), scan.calls.clone());
            sorted.0.sort_unstable();
            sorted.1.sort_unstable();
            assert_eq!(sorted.0, sorted.1, "{ctx}: multiset");
            // A call is issued ahead when a call the scan makes earlier
            // comes later in the heap's log; each such call must be one
            // the engine declared commuting.
            let mut seen = vec![0usize; trace.num_procs as usize];
            let mut scan_pos = vec![Vec::new(); trace.num_procs as usize];
            for (i, c) in scan.calls.iter().enumerate() {
                scan_pos[c.0 as usize].push(i);
            }
            let keyed: Vec<(u32, usize, usize)> = heap
                .calls
                .iter()
                .map(|c| {
                    let k = seen[c.0 as usize];
                    seen[c.0 as usize] += 1;
                    (c.0, k, scan_pos[c.0 as usize][k])
                })
                .collect();
            let mut later_min = usize::MAX;
            let mut ahead = 0;
            let declared = heap.declared.borrow();
            for &(p, k, at) in keyed.iter().rev() {
                if later_min < at {
                    ahead += 1;
                    assert!(
                        declared.contains(&(p, k)),
                        "{ctx}: P{p}'s call {k} ran ahead undeclared"
                    );
                }
                later_min = later_min.min(at);
            }
            assert!(ahead > 0, "{ctx}: nothing ran ahead");
            assert!(scan.declared.borrow().is_empty(), "{ctx}: the scan asked");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn run_trace_equals_reference_across_seeds(
        seed in any::<u64>(),
        scheme in 0usize..8,
        procs in prop_oneof![Just(1u32), Just(3), Just(16), Just(64)],
        kernel in prop_oneof![
            Just(Kernel::Mdg),
            Just(Kernel::FalseShare),
            Just(Kernel::Qcd2),
            Just(Kernel::Ocean)
        ],
    ) {
        // Migrating dynamic schedules make every seed a different trace.
        let trace = trace_with(
            &kernel.build(Scale::Test),
            &TraceOptions {
                num_procs: procs,
                policy: SchedulePolicy::DynamicMigrating { chunk: 2, migrate_per_1024: 256 },
                seed,
                ..TraceOptions::default()
            },
        );
        let schemes = all_schemes();
        let id = schemes[scheme % schemes.len()];
        let cfg = engine_config(&trace);
        let opts = SimOptions::default();
        let fast = run_trace(&trace, build_engine(id, cfg.clone()).as_mut(), &opts);
        let slow = run_trace_reference(&trace, build_engine(id, cfg).as_mut(), &opts);
        assert_identical(&fast, &slow, &format!("{kernel:?}/p{procs}/{id}/seed {seed}"));
    }
}
