//! Step-level engine driver: one access at a time through a live
//! [`CoherenceEngine`], with the ground truth the timing simulator keeps
//! implicitly made explicit.
//!
//! The trace simulator ([`tpi_sim`]) replays whole epochs of a recorded
//! trace; `tpi-model` instead needs to *choose* the next access while
//! exploring interleavings, observe the engine after every single step,
//! and branch from any state it has reached. The [`EngineStepper`]
//! provides exactly that: it owns the engine, the per-processor clocks,
//! the epoch counter, and a per-word ground-truth log (version = number
//! of writes so far, plus the epoch of the last write), and derives sound
//! [`ReadKind`]s from that log — a never-written word reads as
//! [`ReadKind::Plain`], anything else as a [`ReadKind::TimeRead`] whose
//! distance is exactly the word's age in epochs, the tightest bound a
//! correct compiler could emit.
//!
//! A stepper is `Clone` (a deep copy of the engine and its ground truth),
//! so the checker branches by copying a state and stepping the copy, and
//! prunes revisits with [`EngineStepper::fingerprint`], a conservative
//! hash of the full engine state (via its `Debug` rendering) plus the
//! epoch and clocks.

use std::hash::{Hash, Hasher};

use tpi_mem::{Cycle, FastMap, ProcId, ReadKind, WordAddr};
use tpi_proto::{build_engine, AccessOutcome, CoherenceEngine, EngineConfig, SchemeId};

/// Drives one coherence engine a single access at a time, tracking the
/// ground truth needed to issue sound reads and judge the results.
#[derive(Clone)]
pub struct EngineStepper {
    engine: Box<dyn CoherenceEngine>,
    procs: u32,
    /// Per-processor local clocks (cycle time handed to the engine).
    clocks: Vec<Cycle>,
    /// Epochs completed so far (boundaries crossed).
    epoch: u64,
    /// Ground truth: number of writes each word has received.
    versions: FastMap<u64, u64>,
    /// Epoch in which each word was last written.
    last_write_epoch: FastMap<u64, u64>,
}

impl EngineStepper {
    /// Builds a stepper over a fresh engine for `scheme`.
    #[must_use]
    pub fn new(scheme: SchemeId, cfg: EngineConfig) -> Self {
        let procs = cfg.procs;
        EngineStepper {
            engine: build_engine(scheme, cfg),
            procs,
            clocks: vec![0; procs as usize],
            epoch: 0,
            versions: FastMap::default(),
            last_write_epoch: FastMap::default(),
        }
    }

    /// The live engine, for invariant checks and statistics.
    #[must_use]
    pub fn engine(&self) -> &dyn CoherenceEngine {
        self.engine.as_ref()
    }

    /// Mutable engine access (test sabotage hooks downcast through this).
    pub fn engine_mut(&mut self) -> &mut dyn CoherenceEngine {
        self.engine.as_mut()
    }

    /// Number of processors driven.
    #[must_use]
    pub fn procs(&self) -> u32 {
        self.procs
    }

    /// Epochs completed so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ground-truth version of `addr` (number of writes it has received).
    #[must_use]
    pub fn version(&self, addr: WordAddr) -> u64 {
        self.versions.get(&addr.0).copied().unwrap_or(0)
    }

    /// The read marking the ground truth dictates for `addr`: `Plain` for
    /// a never-written word, otherwise a Time-Read whose distance is the
    /// exact epoch age of the last write (0 inside the writing epoch).
    #[must_use]
    pub fn read_kind(&self, addr: WordAddr) -> ReadKind {
        match self.last_write_epoch.get(&addr.0) {
            None => ReadKind::Plain,
            Some(&e) => ReadKind::TimeRead {
                distance: u32::try_from(self.epoch - e).unwrap_or(u32::MAX),
            },
        }
    }

    /// Issues a plain (epoch-ordered) read by `proc` and advances its
    /// clock by the stall.
    pub fn read(&mut self, proc: ProcId, addr: WordAddr) -> AccessOutcome {
        let kind = self.read_kind(addr);
        let version = self.version(addr);
        let now = self.clocks[proc.0 as usize];
        let out = self.engine.read(proc, addr, kind, version, now);
        self.clocks[proc.0 as usize] += out.stall;
        out
    }

    /// Issues a critical-section read (lock-ordered, exempt from the
    /// epoch freshness machinery).
    pub fn read_critical(&mut self, proc: ProcId, addr: WordAddr) -> AccessOutcome {
        let version = self.version(addr);
        let now = self.clocks[proc.0 as usize];
        let out = self
            .engine
            .read(proc, addr, ReadKind::Critical, version, now);
        self.clocks[proc.0 as usize] += out.stall;
        out
    }

    /// Issues a write by `proc`, bumping the ground-truth version; returns
    /// the processor stall.
    pub fn write(&mut self, proc: ProcId, addr: WordAddr) -> Cycle {
        let version = self.version(addr) + 1;
        self.versions.insert(addr.0, version);
        self.last_write_epoch.insert(addr.0, self.epoch);
        let now = self.clocks[proc.0 as usize];
        let stall = self.engine.write(proc, addr, version, now);
        self.clocks[proc.0 as usize] += stall;
        stall
    }

    /// Issues a critical-section write; returns the processor stall.
    pub fn write_critical(&mut self, proc: ProcId, addr: WordAddr) -> Cycle {
        let version = self.version(addr) + 1;
        self.versions.insert(addr.0, version);
        self.last_write_epoch.insert(addr.0, self.epoch);
        let now = self.clocks[proc.0 as usize];
        let stall = self.engine.write_critical(proc, addr, version, now);
        self.clocks[proc.0 as usize] += stall;
        stall
    }

    /// Crosses an epoch boundary: drains write buffers, advances epoch
    /// counters and timetag clocks, joins processor clocks at the barrier.
    pub fn boundary(&mut self) {
        let stalls = self.engine.epoch_boundary(&self.clocks);
        let mut barrier = 0;
        for (clock, stall) in self.clocks.iter_mut().zip(stalls) {
            *clock += stall;
            barrier = barrier.max(*clock);
        }
        for clock in &mut self.clocks {
            *clock = barrier;
        }
        self.epoch += 1;
    }

    /// Per-processor accounting identity: every read is either a hit or a
    /// classified miss. Returns the first processor breaking it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first broken identity.
    pub fn check_accounting(&self) -> Result<(), String> {
        for (p, s) in self.engine.stats().per_proc().iter().enumerate() {
            let sum = s.read_hits + s.read_misses();
            if s.reads != sum {
                return Err(format!(
                    "proc {p} accounting identity broken: {} reads but \
                     {} hits + {} classified misses = {sum}",
                    s.reads,
                    s.read_hits,
                    s.read_misses()
                ));
            }
        }
        Ok(())
    }

    /// Conservative state fingerprint for visited-state pruning: equal
    /// fingerprints (with equal program positions, mixed in by the
    /// caller) imply identical future protocol behaviour. The engine's
    /// derived `Debug` rendering covers every protocol field — caches,
    /// directories, timetags, leases, write buffers — and the epoch and
    /// clocks are mixed in on top. One logical state rendered from two
    /// insertion histories may hash two ways — that costs pruning, not
    /// soundness (standard hash compaction: a 64-bit collision between
    /// genuinely different states is the only unsound event, and it is
    /// vanishingly unlikely at these state counts).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.epoch.hash(&mut h);
        self.clocks.hash(&mut h);
        format!("{:?}", self.engine).hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EngineConfig {
        let mut cfg = EngineConfig::paper_default(1024);
        cfg.procs = 2;
        cfg.verify_freshness = true;
        cfg
    }

    #[test]
    fn read_kinds_follow_the_ground_truth() {
        let mut s = EngineStepper::new(SchemeId::TPI, tiny_cfg());
        let a = WordAddr(0);
        assert_eq!(s.read_kind(a), ReadKind::Plain);
        s.write(ProcId(0), a);
        assert_eq!(s.read_kind(a), ReadKind::TimeRead { distance: 0 });
        s.boundary();
        assert_eq!(s.read_kind(a), ReadKind::TimeRead { distance: 1 });
        assert_eq!(s.version(a), 1);
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn producer_consumer_round_trip_is_fresh_and_accounted() {
        for scheme in tpi_proto::registry::global().all() {
            let mut s = EngineStepper::new(scheme.id(), tiny_cfg());
            let a = WordAddr(0);
            s.write(ProcId(0), a);
            s.boundary();
            let _ = s.read(ProcId(1), a);
            let _ = s.read(ProcId(1), a);
            s.check_accounting()
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.id()));
        }
    }

    #[test]
    fn same_prefix_same_fingerprint() {
        let run = || {
            let mut s = EngineStepper::new(SchemeId::TARDIS, tiny_cfg());
            s.write(ProcId(0), WordAddr(0));
            s.boundary();
            let _ = s.read(ProcId(1), WordAddr(0));
            s.fingerprint()
        };
        assert_eq!(run(), run());
        // A different prefix lands elsewhere.
        let mut s = EngineStepper::new(SchemeId::TARDIS, tiny_cfg());
        s.write(ProcId(0), WordAddr(0));
        assert_ne!(s.fingerprint(), run());
    }
}
