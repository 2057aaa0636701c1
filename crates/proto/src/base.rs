//! The BASE engine: no caching of shared data.
//!
//! This is how the paper's motivating machines (Cray T3D, Intel Paragon)
//! were actually used without coherence support: shared data lives in
//! remote memory and every access crosses the network, while private data
//! is cached normally. BASE is the floor every coherence scheme is measured
//! against.

use crate::stats::{EngineStats, MissClass};
use crate::write_path::WritePath;
use crate::{AccessOutcome, CoherenceEngine, EngineConfig};
use tpi_cache::Cache;
use tpi_mem::{Cycle, DenseBitSet, ProcId, ReadKind, Version, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The BASE (uncached-shared) engine.
#[derive(Debug, Clone)]
pub struct BaseEngine {
    cfg: EngineConfig,
    /// Private-data caches only.
    caches: Vec<Cache>,
    wpath: WritePath,
    net: Network,
    stats: EngineStats,
    ever_cached: Vec<DenseBitSet>,
}

impl BaseEngine {
    /// Builds a BASE engine from `cfg`.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let wpath = WritePath::new(cfg.procs, cfg.wbuffer, cfg.net.word_cycles);
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let ever_cached = vec![DenseBitSet::default(); cfg.procs as usize];
        BaseEngine {
            cfg,
            caches,
            wpath,
            net,
            stats,
            ever_cached,
        }
    }

    /// Checks the defining BASE property: no cache ever holds a valid
    /// word of the shared segment (`tpi-model` invariant
    /// `base-no-shared-lines`).
    pub(crate) fn check_no_shared_lines(&self) -> Result<(), String> {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        for (p, cache) in self.caches.iter().enumerate() {
            let mut bad = None;
            cache.for_each_line(|line| {
                for w in 0..wpl {
                    let addr = WordAddr(geom.first_word(line.addr).0 + w as u64);
                    if line.word_valid(w) && self.cfg.is_shared(addr) && bad.is_none() {
                        bad = Some(addr);
                    }
                }
            });
            if let Some(addr) = bad {
                return Err(format!(
                    "proc {p} caches shared word {} (BASE never caches shared data)",
                    addr.0
                ));
            }
        }
        Ok(())
    }

    /// Test-only sabotage: force a valid copy of shared word `addr` into
    /// proc 0's cache, violating `base-no-shared-lines`.
    #[doc(hidden)]
    pub fn debug_cache_shared_word(&mut self, addr: WordAddr) {
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        let cache = &mut self.caches[0];
        let line = match cache.touch_mut(la) {
            Some(line) => line,
            None => cache.install(la).0,
        };
        line.set_word_valid(w, true);
    }
}

impl CoherenceEngine for BaseEngine {
    fn name(&self) -> &'static str {
        "BASE"
    }

    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        _kind: ReadKind,
        version: Version,
        _now: Cycle,
    ) -> AccessOutcome {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).reads += 1;
        if self.cfg.is_shared(addr) {
            // Remote single-word access, every time.
            let stall = 1 + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            self.stats
                .proc_mut(p)
                .record_miss(MissClass::Uncached, stall);
            return AccessOutcome::miss(stall, MissClass::Uncached);
        }
        // Private data: normal write-through cache.
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if let Some(line) = self.caches[p].touch_mut(la) {
            if line.word_valid(w) {
                self.stats.proc_mut(p).read_hits += 1;
                return AccessOutcome::hit();
            }
        }
        let class = if self.ever_cached[p].contains(la.0) {
            MissClass::Replacement
        } else {
            MissClass::Cold
        };
        let line_words = geom.words_per_line();
        let stall = 1 + self.net.line_fetch(line_words);
        self.net.record(TrafficClass::Read, 0);
        self.net.record(TrafficClass::Read, line_words);
        let wpl = geom.words_per_line();
        let cache = &mut self.caches[p];
        let line = match cache.touch_mut(la) {
            Some(line) => line,
            None => cache.install(la).0,
        };
        for word in 0..wpl {
            line.set_word_valid(word, true);
        }
        line.set_version(w, version);
        self.ever_cached[p].insert(la.0);
        self.stats.proc_mut(p).record_miss(class, stall);
        AccessOutcome::miss(stall, class)
    }

    fn write(&mut self, proc: ProcId, addr: WordAddr, version: Version, now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        if !self.cfg.is_shared(addr) {
            let geom = self.cfg.cache.geometry;
            let la = geom.line_of(addr);
            let w = geom.word_in_line(addr);
            if let Some(line) = self.caches[p].touch_mut(la) {
                line.set_word_valid(w, true);
                line.set_version(w, version);
            }
        }
        // Shared or private, the store goes to memory through the buffer.
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        self.wpath.boundary(per_proc_now)
    }

    fn network(&self) -> &Network {
        &self.net
    }

    fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn write_buffer_stats(&self) -> Option<tpi_cache::WriteBufferStats> {
        Some(self.wpath.buffer_stats())
    }

    fn order_insensitive(&self) -> bool {
        // Shared data is never cached, so the engine has no cross-
        // processor state at all beyond commutative traffic counters.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);

    #[test]
    fn shared_reads_never_hit() {
        let mut e = BaseEngine::new(EngineConfig::paper_default(1000));
        for i in 0..3 {
            let m = e.read(P0, WordAddr(7), ReadKind::Plain, 0, i);
            assert_eq!(m.miss, Some(MissClass::Uncached));
        }
        assert_eq!(e.stats().proc(0).read_hits, 0);
        assert_eq!(e.stats().proc(0).misses(MissClass::Uncached), 3);
    }

    #[test]
    fn shared_word_access_is_cheaper_than_line_fetch() {
        let mut e = BaseEngine::new(EngineConfig::paper_default(1000));
        let m = e.read(P0, WordAddr(7), ReadKind::Plain, 0, 0);
        assert!(m.stall < 101, "single-word remote access, got {}", m.stall);
    }

    #[test]
    fn private_data_is_cached() {
        let mut e = BaseEngine::new(EngineConfig::paper_default(1000));
        let private = WordAddr(5000);
        let m = e.read(P0, private, ReadKind::Plain, 0, 0);
        assert_eq!(m.miss, Some(MissClass::Cold));
        let h = e.read(P0, private, ReadKind::Plain, 0, 1);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn writes_do_not_stall() {
        let mut e = BaseEngine::new(EngineConfig::paper_default(1000));
        assert_eq!(e.write(P0, WordAddr(3), 1, 0), 1);
        assert_eq!(e.network().stats().words(TrafficClass::Write), 2);
    }
}
