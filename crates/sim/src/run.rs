//! Replaying a trace against a coherence engine with cycle accounting.
//!
//! The simulator advances one global clock per epoch. Within an epoch each
//! processor's event stream advances its own clock, and cross-processor
//! protocol interactions — directory invalidations, ownership transfers,
//! lock hand-offs — happen in min-clock order: the processor with the
//! smallest `(clock, index)` issues next. At the epoch boundary all
//! processors synchronize at a barrier: the engine adds its boundary costs
//! (write-buffer drain, two-phase resets), a fixed loop setup/scheduling
//! overhead is charged, and the network's load estimate is refreshed from
//! the epoch's traffic.
//!
//! This module holds the result types and the entry points; the replay
//! itself is the replay core in [`crate::replay`].

use std::time::Instant;
use tpi_mem::Cycle;
use tpi_proto::CoherenceEngine;
use tpi_trace::Trace;

/// Simulator knobs that are not part of the coherence engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Barrier + parallel-loop setup/scheduling cost per epoch.
    pub epoch_setup_cycles: Cycle,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            epoch_setup_cycles: 100,
        }
    }
}

/// Per-epoch timing/miss profile (for timeline figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochProfile {
    /// Epoch index.
    pub epoch: u64,
    /// Wall-clock cycles the epoch took (including barrier and setup).
    pub cycles: Cycle,
    /// Read misses taken during the epoch (all processors).
    pub misses: u64,
}

/// Host-side (wall-clock) self-measurement of one [`run_trace`] call, fed
/// into the `tpi-prof` stage profiler by the experiment engine.
///
/// These are measurements of the *simulator program*, not of the simulated
/// machine: nanoseconds of host time and counts of host work. They are
/// excluded from every determinism comparison (the equivalence tests
/// compare cycles, protocol counters, and traffic — never host time).
#[derive(Debug, Clone, Default)]
pub struct SimHostProfile {
    /// Host nanoseconds spent replaying events (every epoch's heap or scan
    /// replay, including engine read/write calls).
    pub replay_nanos: u64,
    /// Host nanoseconds spent in [`CoherenceEngine::epoch_boundary`]
    /// (write-buffer drains, two-phase resets).
    pub boundary_nanos: u64,
    /// Trace events replayed.
    pub events: u64,
    /// Processor switches of the heap replay: times the running processor
    /// yielded to one with a smaller clock. Deterministic; 0 when every
    /// epoch replays by scan or the engine is
    /// [`CoherenceEngine::order_insensitive`].
    pub switches: u64,
    /// Events the heap replay issued ahead of a processor with a smaller
    /// clock, because they commute with the rest of their epoch
    /// ([`CoherenceEngine::commutes`]). Deterministic; 0 when every epoch
    /// replays by scan or the engine is order-insensitive.
    pub run_ahead: u64,
    /// Engine-reported operation counters (see
    /// [`CoherenceEngine::op_counts`]).
    pub ops: Vec<(&'static str, u64)>,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheme label.
    pub scheme: String,
    /// Total execution time.
    pub total_cycles: Cycle,
    /// Per-processor busy time (excludes barrier waiting).
    pub busy_cycles: Vec<Cycle>,
    /// Aggregate protocol counters.
    pub agg: tpi_proto::ProcStats,
    /// Per-processor protocol counters.
    pub per_proc: Vec<tpi_proto::ProcStats>,
    /// Network traffic by class.
    pub traffic: tpi_net::TrafficStats,
    /// Write-buffer behaviour (write-through schemes only).
    pub wbuffer: Option<tpi_cache::WriteBufferStats>,
    /// Number of epochs executed.
    pub epochs: u64,
    /// Lock acquisitions performed.
    pub lock_acquires: u64,
    /// Cycles processors spent waiting for contended locks.
    pub lock_wait_cycles: Cycle,
    /// Per-epoch timeline.
    pub profile: Vec<EpochProfile>,
    /// Read misses attributed to the program array that was accessed,
    /// sorted descending ("which array causes the misses"). Private-array
    /// replicas resolve to their declared array.
    pub miss_by_array: Vec<(String, u64)>,
    /// Host-side wall-clock self-measurement (profiling only; never part
    /// of any determinism comparison).
    pub host: SimHostProfile,
}

impl SimResult {
    /// Aggregate read miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.agg.miss_rate()
    }

    /// Aggregate average read-miss latency.
    #[must_use]
    pub fn avg_miss_latency(&self) -> f64 {
        self.agg.avg_miss_latency()
    }

    /// Speedup of this run relative to `other` (other / self).
    #[must_use]
    pub fn speedup_over(&self, other: &SimResult) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            other.total_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Network words per (shared) memory reference — a traffic density
    /// measure comparable across schemes.
    #[must_use]
    pub fn words_per_reference(&self) -> f64 {
        let refs = self.agg.reads + self.agg.writes;
        if refs == 0 {
            0.0
        } else {
            self.traffic.total_words() as f64 / refs as f64
        }
    }
}

/// Replays `trace` against `engine`.
///
/// Each epoch replays through a heap of processor clocks, or by scan when
/// it holds lock or post/wait events (see [`crate::replay`]). The result
/// always equals [`run_trace_reference`]'s.
///
/// # Panics
///
/// Panics if the trace was generated for a different processor count than
/// the engine was built with, or on a malformed trace (lock deadlock).
pub fn run_trace(trace: &Trace, engine: &mut dyn CoherenceEngine, opts: &SimOptions) -> SimResult {
    crate::replay::replay(trace, engine, opts, false)
}

/// Replays `trace` against `engine` with the min-clock scan in every
/// epoch: the reference order that [`run_trace`] must reproduce exactly.
/// Equivalence tests and the differential fuzzer compare against it; it is
/// `O(P)` per event, so nothing else should call it.
///
/// # Panics
///
/// As [`run_trace`].
pub fn run_trace_reference(
    trace: &Trace,
    engine: &mut dyn CoherenceEngine,
    opts: &SimOptions,
) -> SimResult {
    crate::replay::replay(trace, engine, opts, true)
}

/// Saturating nanoseconds since `start` (a duration that overflows `u64`
/// nanoseconds pins at `u64::MAX` instead of panicking).
pub(crate) fn elapsed_nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a dense per-array miss tally as the report's sorted
/// `(array name, misses)` table.
pub(crate) fn miss_by_array_table(
    layout: &tpi_mem::MemLayout,
    array_misses: &[u64],
) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = array_misses
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| {
            let id = tpi_mem::ArrayId(i as u32);
            (layout.decl(id).name().to_owned(), n)
        })
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// Checks the bookkeeping identity `hits + misses == reads` per processor
/// and in aggregate.
///
/// # Errors
///
/// Returns a description of the first processor whose counters do not add
/// up.
pub fn verify_accounting(result: &SimResult) -> Result<(), String> {
    for (p, s) in result.per_proc.iter().enumerate() {
        if s.read_hits + s.read_misses() != s.reads {
            return Err(format!(
                "P{p}: hits {} + misses {} != reads {}",
                s.read_hits,
                s.read_misses(),
                s.reads
            ));
        }
    }
    let a = &result.agg;
    if a.read_hits + a.read_misses() != a.reads {
        return Err("aggregate accounting mismatch".to_owned());
    }
    Ok(())
}
