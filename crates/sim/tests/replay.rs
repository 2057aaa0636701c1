//! Serial and sharded replay: accounting, host profile, and sharded
//! results equal to the serial ones.

mod common;

use common::{all_schemes, assert_identical, doacross_program, producer_consumer_trace, trace_on};
use tpi_proto::{build_engine, EngineConfig, SchemeId};
use tpi_sim::{
    run_trace, run_trace_sharded, verify_accounting, ShardExec, ShardOptions, SimOptions, SimResult,
};
use tpi_trace::{EpochEvents, Trace};

fn run(scheme: SchemeId, trace: &Trace) -> SimResult {
    let cfg = EngineConfig::paper_default(trace.layout.total_words());
    let mut engine = build_engine(scheme, cfg);
    run_trace(trace, engine.as_mut(), &SimOptions::default())
}

fn sharded(scheme: SchemeId, trace: &Trace, shards: usize, exec: ShardExec) -> SimResult {
    let cfg = EngineConfig::paper_default(trace.layout.total_words());
    let so = ShardOptions { shards, exec };
    run_trace_sharded(trace, scheme, &cfg, &SimOptions::default(), &so)
}

#[test]
fn accounting_identity_holds_for_all_schemes() {
    let trace = producer_consumer_trace();
    for scheme in all_schemes() {
        let r = run(scheme, &trace);
        verify_accounting(&r).unwrap_or_else(|e| panic!("{scheme}: {e}"));
        assert!(r.total_cycles > 0);
        assert_eq!(r.epochs, 2);
    }
}

#[test]
fn scheme_ordering_on_producer_consumer() {
    let trace = producer_consumer_trace();
    let base = run(SchemeId::BASE, &trace);
    let tpi = run(SchemeId::TPI, &trace);
    let hw = run(SchemeId::FULL_MAP, &trace);
    // Caching schemes beat no-caching on this kernel.
    assert!(tpi.total_cycles < base.total_cycles);
    assert!(hw.total_cycles < base.total_cycles);
    // TPI and HW are in the same ballpark (the paper's headline).
    let ratio = tpi.total_cycles as f64 / hw.total_cycles as f64;
    assert!(
        (0.4..2.5).contains(&ratio),
        "TPI/HW ratio out of band: {ratio} ({} vs {})",
        tpi.total_cycles,
        hw.total_cycles
    );
}

#[test]
fn deterministic_replay() {
    let trace = producer_consumer_trace();
    let r1 = run(SchemeId::TPI, &trace);
    let r2 = run(SchemeId::TPI, &trace);
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(r1.traffic, r2.traffic);
}

#[test]
fn busy_cycles_do_not_exceed_total() {
    let trace = producer_consumer_trace();
    let r = run(SchemeId::TPI, &trace);
    for &b in &r.busy_cycles {
        assert!(b <= r.total_cycles);
    }
}

#[test]
fn host_profile_counts_every_event_once() {
    let trace = producer_consumer_trace();
    let r = run(SchemeId::TPI, &trace);
    let total_events: usize = trace.epochs.iter().map(EpochEvents::len).sum();
    assert_eq!(r.host.events, total_events as u64);
    assert!(r.host.replay_nanos > 0, "replay loop must record wall time");
    assert!(
        r.host
            .ops
            .iter()
            .any(|(name, n)| *name == "tpi_fills" && *n > 0),
        "TPI engine must report op counters: {:?}",
        r.host.ops
    );
}

#[test]
fn write_through_schemes_report_buffer_stats() {
    let trace = producer_consumer_trace();
    assert!(run(SchemeId::TPI, &trace).wbuffer.is_some());
    assert!(run(SchemeId::SC, &trace).wbuffer.is_some());
    assert!(run(SchemeId::FULL_MAP, &trace).wbuffer.is_none());
}

#[test]
fn sharded_tpi_matches_serial_inline() {
    let trace = producer_consumer_trace();
    let want = run(SchemeId::TPI, &trace);
    for shards in [2, 3, 16] {
        let got = sharded(SchemeId::TPI, &trace, shards, ShardExec::Inline);
        assert_identical(&got, &want, &format!("shards={shards}"));
    }
}

#[test]
fn sharded_tpi_matches_serial_threaded() {
    let trace = producer_consumer_trace();
    let want = run(SchemeId::TPI, &trace);
    let got = sharded(SchemeId::TPI, &trace, 4, ShardExec::Threads);
    assert_identical(&got, &want, "threads");
}

#[test]
fn sharded_sc_and_base_match_serial() {
    let trace = producer_consumer_trace();
    for scheme in [SchemeId::SC, SchemeId::BASE, SchemeId::IDEAL] {
        let want = run(scheme, &trace);
        let got = sharded(scheme, &trace, 4, ShardExec::Inline);
        assert_identical(&got, &want, scheme.as_str());
    }
}

#[test]
fn order_sensitive_schemes_fall_back_to_serial() {
    let trace = producer_consumer_trace();
    for scheme in [SchemeId::FULL_MAP, SchemeId::TARDIS] {
        let want = run(scheme, &trace);
        let got = sharded(scheme, &trace, 8, ShardExec::Auto);
        assert_identical(&got, &want, scheme.as_str());
    }
}

#[test]
fn syncful_epochs_match_serial_on_both_drivers() {
    let trace = trace_on(&doacross_program(), 16);
    for scheme in [SchemeId::TPI, SchemeId::SC] {
        let want = run(scheme, &trace);
        for exec in [ShardExec::Inline, ShardExec::Threads] {
            let got = sharded(scheme, &trace, 4, exec);
            assert_identical(&got, &want, &format!("{scheme}/{exec:?}"));
        }
    }
}

#[test]
fn one_shard_is_the_serial_path() {
    let trace = producer_consumer_trace();
    let want = run(SchemeId::TPI, &trace);
    let got = sharded(SchemeId::TPI, &trace, 1, ShardExec::Auto);
    assert_identical(&got, &want, "one shard");
}

#[test]
fn shard_count_exceeding_procs_is_clamped() {
    let trace = producer_consumer_trace();
    let want = run(SchemeId::TPI, &trace);
    let got = sharded(SchemeId::TPI, &trace, 1000, ShardExec::Inline);
    assert_identical(&got, &want, "clamped");
}
