//! Coherence schemes for the TPI study: BASE, SC, TPI, and directory
//! protocols (full-map and LimitLess), behind one [`CoherenceEngine`]
//! interface. Schemes are resolved by [`SchemeId`] through the static
//! scheme table in [`registry`].
//!
//! The four main schemes reproduce Section 4.2 of the paper:
//!
//! * [`SchemeId::BASE`] — shared data is never cached; every shared
//!   access is a remote memory access (the Cray T3D / Paragon usage model).
//! * [`SchemeId::SC`] — software cache-bypass: compiler-marked
//!   potentially-stale loads always go to memory (a cache-block invalidate
//!   followed by a load on a stock microprocessor), so only task-local reuse
//!   survives. Write-through, write-allocate.
//! * [`SchemeId::TPI`] — the paper's two-phase invalidation scheme:
//!   per-word timetags checked against the compiler's Time-Read distance,
//!   line fills stamping non-requested words `epoch - 1`, two-phase tag
//!   resets. Write-through, write-allocate.
//! * [`SchemeId::FULL_MAP`] — a three-state (Invalid / Read-Shared /
//!   Write-Exclusive) invalidation protocol with a full-map directory and
//!   write-back caches (label "HW").
//! * [`SchemeId::LIMITLESS`] — the directory protocol with `i` hardware
//!   pointers and a software trap on overflow (used in the paper's storage
//!   comparison; implemented here as a protocol variant too).
//!
//! The registry also carries the IDEAL oracle and the post-paper TARDIS
//! and HYB protocols; see [`registry::global()`].
//!
//! All engines run under weak consistency: reads stall the processor,
//! writes retire through (infinite) write buffers and must be globally
//! performed by the next epoch boundary.

#![warn(missing_docs)]

pub mod base;
pub mod fullmap;
pub mod hybrid;
pub mod ideal;
pub mod invariant;
pub mod refs;
pub mod registry;
pub mod sc;
pub mod sharers;
pub mod stats;
pub mod storage;
pub mod tardis;
pub mod tpi;
mod versions;
mod write_path;

pub use base::BaseEngine;
pub use fullmap::DirectoryEngine;
pub use hybrid::HybridEngine;
pub use ideal::IdealEngine;
pub use invariant::{ModelInvariant, Sabotage};
pub use refs::EpochRefs;
pub use registry::{RegistryError, Scheme, SchemeId};
pub use sc::ScEngine;
pub use stats::{EngineStats, MissClass, ProcStats};
pub use tardis::TardisEngine;
pub use tpi::TpiEngine;

use tpi_cache::{CacheConfig, ResetStrategy, WriteBufferKind, WritePolicy};
use tpi_mem::{Cycle, ProcId, ReadKind, WordAddr};
use tpi_net::{Network, NetworkConfig};

/// Everything needed to instantiate an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Number of processors.
    pub procs: u32,
    /// Per-node cache.
    pub cache: CacheConfig,
    /// Network and memory timing.
    pub net: NetworkConfig,
    /// Timetag width in bits (TPI).
    pub tag_bits: u32,
    /// Timetag recycling strategy (TPI).
    pub reset_strategy: ResetStrategy,
    /// Cycles a phase reset stalls each processor (the paper: 128).
    pub reset_cycles: Cycle,
    /// Write buffer organization for the write-through schemes.
    pub wbuffer: WriteBufferKind,
    /// Write policy of the HSCD caches (TPI; SC is always write-through).
    pub write_policy: WritePolicy,
    /// Word addresses below this bound are shared; above are private
    /// replicas.
    pub shared_limit: u64,
    /// Hardware pointers per directory entry (LimitLess).
    pub limitless_pointers: u32,
    /// Software-trap penalty on pointer overflow (LimitLess).
    pub limitless_trap_cycles: Cycle,
    /// Whether a verified Time-Read hit re-stamps the word with the
    /// current epoch (sound: the datum is provably fresh *now*), extending
    /// its reuse window across later epochs. Disable for the ablation.
    pub restamp_verified_hits: bool,
    /// Check on every cache hit that the observed shadow version equals
    /// the version the execution requires, even in release builds
    /// (debug builds always check). Panics on violation — turning the
    /// paper's soundness argument into an executable assertion.
    pub verify_freshness: bool,
    /// Optional on-chip first-level cache in front of the tagged TPI
    /// cache, modelling the paper's off-the-shelf-microprocessor
    /// implementation (Section 3): the stock core's L1 serves plain loads;
    /// marked references execute as a cache-op + load (L1 word invalidate,
    /// then the tagged off-chip check).
    pub l1: Option<L1Config>,
    /// What a failed tag check refetches (TPI; line-absent misses always
    /// fetch whole lines).
    pub coherence_fetch: FetchGranularity,
    /// Logical-timestamp lease length granted to Tardis reads: how far
    /// past the reader's clock a fetched word stays self-usable before the
    /// next use must revalidate at the home.
    pub tardis_lease: u64,
    /// Competitive update/invalidate threshold of the hybrid scheme: a
    /// sharer that receives this many consecutive updates to a line
    /// without a local access is invalidated instead.
    pub hybrid_threshold: u32,
}

/// What a TPI coherence miss (failed tag check on a resident line)
/// fetches from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchGranularity {
    /// Refetch the whole line (the paper's write-allocate organization:
    /// spatial locality at the cost of line-sized traffic).
    #[default]
    Line,
    /// Fetch only the requested word (less traffic, no spatial refresh).
    Word,
}

impl std::fmt::Display for FetchGranularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchGranularity::Line => write!(f, "line"),
            FetchGranularity::Word => write!(f, "word"),
        }
    }
}

/// Parameters of the optional on-chip L1 (two-level TPI, Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// L1 capacity in bytes (small on-chip cache, e.g. 8 KB).
    pub size_bytes: usize,
    /// L1 associativity.
    pub assoc: u32,
    /// Access time of the off-chip tagged cache on an L1 miss that hits
    /// there (added to the 1-cycle L1 path).
    pub l2_hit_cycles: Cycle,
}

impl L1Config {
    /// An 8 KB direct-mapped on-chip cache over a 5-cycle off-chip SRAM.
    #[must_use]
    pub fn paper_default() -> Self {
        L1Config {
            size_bytes: 8 * 1024,
            assoc: 1,
            l2_hit_cycles: 5,
        }
    }
}

impl EngineConfig {
    /// The paper's Figure 8 configuration (16 processors, 64 KB
    /// direct-mapped caches, 4-word lines, 8-bit tags, 128-cycle reset).
    #[must_use]
    pub fn paper_default(shared_limit: u64) -> Self {
        EngineConfig {
            procs: 16,
            cache: CacheConfig::paper_default(),
            net: NetworkConfig::paper_default(16),
            tag_bits: 8,
            reset_strategy: ResetStrategy::TwoPhase,
            reset_cycles: 128,
            wbuffer: WriteBufferKind::Fifo,
            write_policy: WritePolicy::Through,
            shared_limit,
            limitless_pointers: 10,
            limitless_trap_cycles: 50,
            restamp_verified_hits: true,
            verify_freshness: cfg!(debug_assertions),
            l1: None,
            coherence_fetch: FetchGranularity::Line,
            tardis_lease: 8,
            hybrid_threshold: 4,
        }
    }

    /// Whether `addr` is in the shared segment.
    #[must_use]
    pub fn is_shared(&self, addr: WordAddr) -> bool {
        addr.0 < self.shared_limit
    }
}

/// Result of a read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles the issuing processor stalls.
    pub stall: Cycle,
    /// Set when the access missed, with its classification.
    pub miss: Option<MissClass>,
}

impl AccessOutcome {
    /// A one-cycle cache hit.
    #[must_use]
    pub fn hit() -> Self {
        AccessOutcome {
            stall: 1,
            miss: None,
        }
    }

    /// A classified miss with total stall `stall`.
    #[must_use]
    pub fn miss(stall: Cycle, class: MissClass) -> Self {
        AccessOutcome {
            stall,
            miss: Some(class),
        }
    }
}

/// A coherence scheme: per-processor caches, a shared interconnect, and the
/// protocol logic between them.
///
/// The timing simulator drives an engine with per-processor `now` clocks;
/// engines return stall cycles and account traffic into their [`Network`].
///
/// `Debug` is a supertrait so model-checking tooling can fingerprint the
/// complete protocol state; all engines derive it. `Send` is a supertrait
/// so an engine can move to the thread that replays it; engines are plain
/// data and satisfy it structurally. [`AnyEngine`] is a supertrait so
/// [`CoherenceEngine::as_any`] needs no body in an engine, and so a boxed
/// engine is `Clone` for any engine that derives it: `tpi-model` searches
/// by copying each explored state.
pub trait CoherenceEngine: std::fmt::Debug + Send + AnyEngine {
    /// Scheme label for reports.
    fn name(&self) -> &'static str;

    /// The concrete engine as [`std::any::Any`], so scheme-specific
    /// tooling (the [`invariant`] checks of `tpi-model`) can downcast a
    /// boxed engine back to its real type. Wrapping engines must forward
    /// it to the engine they wrap.
    fn as_any(&self) -> &dyn std::any::Any {
        self.any_ref()
    }

    /// Mutable [`std::any::Any`] access, for the [`invariant::Sabotage`]
    /// hooks that hand-break a live engine to prove the checkers catch
    /// each invariant. Wrapping engines must forward it.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.any_mut()
    }

    /// Processes a load by `proc` at local time `now`. `version` is the
    /// value generation the load must observe (simulation shadow state).
    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        now: Cycle,
    ) -> AccessOutcome;

    /// Processes a store; returns the processor stall (typically 1 cycle —
    /// writes retire in the background under weak consistency).
    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle;

    /// Processes a store issued inside a lock-guarded critical section.
    ///
    /// HSCD schemes must push it to memory without allocating a line (it
    /// must be globally visible by lock release, and the epoch machinery
    /// says nothing about it); directory schemes handle it like any
    /// coherent write. The default forwards to [`CoherenceEngine::write`].
    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.write(proc, addr, version, now)
    }

    /// Crosses an epoch boundary: drains write buffers, advances the epoch
    /// counter, applies timetag resets. `per_proc_now` is each processor's
    /// local completion time; the return value is each processor's extra
    /// stall at the barrier.
    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle>;

    /// The interconnect (for traffic stats and load updates).
    fn network(&self) -> &Network;

    /// Mutable interconnect access (the simulator calls
    /// [`Network::end_epoch`]).
    fn network_mut(&mut self) -> &mut Network;

    /// Per-processor statistics.
    fn stats(&self) -> &EngineStats;

    /// Write-buffer statistics, for the write-through schemes.
    fn write_buffer_stats(&self) -> Option<tpi_cache::WriteBufferStats> {
        None
    }

    /// Monotonic operation counters for the profiling layer, as stable
    /// `(name, count)` pairs (e.g. `("tpi_tag_checks", n)`).
    ///
    /// Purely observational: the counters never influence timing or
    /// protocol behaviour, and engines that do not instrument themselves
    /// report none.
    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Whether every access of a sync-free epoch commutes with every
    /// other processor's: each per-event outcome is a pure function of
    /// per-processor state, global state committed at the last epoch
    /// boundary, and commutative global accumulators, never of how other
    /// processors interleave within the epoch.
    ///
    /// When it is true, the simulator's heap replay never yields: each
    /// sync-free epoch replays one processor stream at a time, and no
    /// [`EpochRefs`] table is built. When it is false, sync-free epochs
    /// replay in min-clock order, except where
    /// [`CoherenceEngine::commutes`] lets a processor run ahead. A wrong
    /// `true` therefore changes results. `tpi-model` checks the claim at
    /// every explored state of an epoch without critical accesses, and
    /// the `replay` class of `tpi-fuzz` and the reference pins compare
    /// `run_trace` against the min-clock reference replay.
    ///
    /// True for the epoch-disciplined schemes (BASE, SC, TPI, IDEAL):
    /// their only cross-processor state is the memory version table,
    /// which commits at epoch boundaries (matching the write-buffer
    /// drain). False for the order-sensitive schemes: the directory
    /// engines observe mid-epoch sharer/owner state (three-hop dirty
    /// fetches, false-sharing invalidations) and Tardis stamps leases
    /// from a live global read-timestamp table. Wrapping engines must
    /// forward it.
    fn order_insensitive(&self) -> bool {
        false
    }

    /// Whether `proc`'s next access, a read or (with `write`) a write of
    /// `addr`, commutes with every access any other processor makes in the
    /// current epoch, whose references `refs` records.
    ///
    /// When it does, the simulator's heap replay lets `proc` issue it
    /// ahead of processors with smaller clocks instead of waiting its
    /// turn. The reordered calls must touch disjoint engine state, apart
    /// from commutative accumulators (traffic and operation counters), so
    /// that every outcome, every counter and the final state equal those
    /// of the min-clock order. An access reads and writes its own
    /// processor's state, the records of its line and of the lines it
    /// displaces, and the accumulators; another processor's access reaches
    /// the first two only through lines that processor references, holds
    /// or displaces. Message latency depends only on the load fixed at the
    /// last boundary. So a rule that excludes those lines is exact.
    ///
    /// The answer must hold for the rest of the epoch whatever the other
    /// processors do (they can only remove this processor's holdings, never
    /// add to them), and must cover critical reads and writes as their
    /// plain forms. An [`CoherenceEngine::order_insensitive`] engine is the
    /// case where every access commutes. The default, `false`, keeps the
    /// plain min-clock order; the reference pins in `crates/sim/tests`,
    /// the `replay` class of `tpi-fuzz` and `tpi-model`'s commutation
    /// check hold every engine to its rule. Wrapping engines must forward
    /// it.
    fn commutes(&self, _proc: ProcId, _addr: WordAddr, _write: bool, _refs: &EpochRefs) -> bool {
        false
    }
}

/// Upcasts and copies a concrete engine behind `dyn CoherenceEngine`: the
/// provided bodies of [`CoherenceEngine::as_any`] and
/// [`CoherenceEngine::as_any_mut`], and the `Clone` of a boxed engine.
pub trait AnyEngine: std::any::Any {
    /// `self` as [`std::any::Any`].
    fn any_ref(&self) -> &dyn std::any::Any;
    /// `self` as mutable [`std::any::Any`].
    fn any_mut(&mut self) -> &mut dyn std::any::Any;
    /// A deep copy of `self`, boxed.
    fn boxed_clone(&self) -> Box<dyn CoherenceEngine>;
}

impl<T: CoherenceEngine + Clone> AnyEngine for T {
    fn any_ref(&self) -> &dyn std::any::Any {
        self
    }
    fn any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn boxed_clone(&self) -> Box<dyn CoherenceEngine> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn CoherenceEngine> {
    fn clone(&self) -> Self {
        (**self).boxed_clone()
    }
}

/// Builds the engine for `scheme` through the global [`registry`].
///
/// # Panics
///
/// Panics if `scheme` is not registered; resolve user input through
/// [`registry::global()`]`.lookup(..)` first to report the error
/// structurally.
///
/// # Examples
///
/// ```
/// use tpi_mem::{ProcId, ReadKind, WordAddr};
/// use tpi_proto::{build_engine, EngineConfig, SchemeId};
///
/// let mut engine = build_engine(SchemeId::TPI, EngineConfig::paper_default(1 << 20));
/// let miss = engine.read(ProcId(0), WordAddr(64), ReadKind::Plain, 0, 0);
/// assert!(miss.miss.is_some());
/// let hit = engine.read(ProcId(0), WordAddr(64), ReadKind::Plain, 0, 200);
/// assert!(hit.miss.is_none());
/// ```
#[must_use]
pub fn build_engine(scheme: SchemeId, cfg: EngineConfig) -> Box<dyn CoherenceEngine> {
    match registry::global().get(scheme) {
        Ok(s) => s.build(cfg),
        Err(e) => panic!("build_engine: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_shared_test() {
        let cfg = EngineConfig::paper_default(100);
        assert!(cfg.is_shared(WordAddr(99)));
        assert!(!cfg.is_shared(WordAddr(100)));
        assert_eq!(cfg.procs, 16);
        assert_eq!(cfg.reset_cycles, 128);
    }

    #[test]
    fn build_all_engines() {
        for scheme in registry::global().all() {
            let e = build_engine(scheme.id(), EngineConfig::paper_default(1024));
            assert!(!e.name().is_empty());
            assert_eq!(e.stats().per_proc().len(), 16);
        }
    }

    #[test]
    fn any_ref_on_a_box_reaches_the_engine() {
        let engine = build_engine(SchemeId::TPI, EngineConfig::paper_default(1024));
        assert!(engine.any_ref().is::<TpiEngine>());
    }

    /// Issues `accesses` (processor, word, is-write) of epoch `epoch` in
    /// order, each read with the version and Time-Read distance a sound
    /// execution requires; `log` maps a word to its version and the
    /// epoch of its last write.
    fn drive(
        engine: &mut dyn CoherenceEngine,
        log: &mut std::collections::HashMap<u64, (u64, u64)>,
        epoch: u64,
        accesses: &[(u32, u64, bool)],
    ) {
        for (i, &(p, w, write)) in accesses.iter().enumerate() {
            let now = epoch * 10_000 + i as Cycle * 100;
            let (version, last) = log.get(&w).copied().unwrap_or((0, 0));
            if write {
                log.insert(w, (version + 1, epoch));
                engine.write(ProcId(p), WordAddr(w), version + 1, now);
            } else {
                let kind = if version == 0 {
                    ReadKind::Plain
                } else {
                    ReadKind::TimeRead {
                        distance: (epoch - last) as u32,
                    }
                };
                engine.read(ProcId(p), WordAddr(w), kind, version, now);
            }
        }
    }

    #[test]
    fn a_cloned_engine_is_a_deep_copy() {
        let cfg = EngineConfig::paper_default(1024);
        for scheme in registry::global().all() {
            let id = scheme.id();
            let mut engine = build_engine(id, cfg.clone());
            let mut log = std::collections::HashMap::new();
            let first = [(0, 0, true), (1, 64, false), (0, 0, false), (2, 128, true)];
            drive(engine.as_mut(), &mut log, 0, &first);
            engine.epoch_boundary(&[10_000; 16]);
            let mut copy = engine.clone();
            let second = [(1, 0, false), (0, 64, true), (2, 128, false), (1, 0, false)];
            drive(engine.as_mut(), &mut log.clone(), 1, &second);
            drive(copy.as_mut(), &mut log, 1, &second);
            let original = format!("{engine:?}");
            assert_eq!(format!("{copy:?}"), original, "{id}: the copy diverged");
            copy.write(ProcId(3), WordAddr(192), 1, 20_000);
            assert_eq!(format!("{engine:?}"), original, "{id}: shared state");
            assert_ne!(format!("{copy:?}"), original, "{id}: a lost write");
        }
    }

    #[test]
    fn outcome_constructors() {
        assert_eq!(AccessOutcome::hit().stall, 1);
        let m = AccessOutcome::miss(100, MissClass::Cold);
        assert_eq!(m.miss, Some(MissClass::Cold));
    }
}
