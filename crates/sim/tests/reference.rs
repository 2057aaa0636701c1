//! `run_trace` against `run_trace_reference`, the min-clock scan over
//! every epoch. Flat and heap replay are exact only if every field of the
//! result — host event and op counts included — matches the scan's, for
//! every scheme, on kernels with locks, doacross, false sharing and wide
//! machines.

mod common;

use common::{
    all_schemes, assert_identical, doacross_program, engine_config, hand_trace, trace_on,
    trace_with,
};
use tpi_ir::Program;
use tpi_mem::{Cycle, ProcId, ReadKind, WordAddr};
use tpi_proto::{build_engine, AccessOutcome, CoherenceEngine, EngineConfig, EngineStats};
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
#[derive(Debug)]
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
    fn shard_safe(&self) -> bool {
        self.inner.shard_safe()
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
