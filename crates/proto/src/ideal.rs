//! An oracle engine: perfect coherence at zero cost.
//!
//! Not a scheme from the paper — a *lower bound*. Every read hits unless
//! the processor has truly never seen the line (cold) or lost it to
//! capacity (replacement); coherence is maintained by magic, with no
//! invalidations, no tag checks, no write traffic and no extra latency.
//! Comparing any real scheme against `Ideal` isolates the cost of
//! coherence itself from the cost of cold/capacity misses the workload
//! would pay on any machine.

use crate::stats::{EngineStats, MissClass};
use crate::{AccessOutcome, CoherenceEngine, EngineConfig};
use tpi_cache::Cache;
use tpi_mem::{Cycle, DenseBitSet, LineAddr, ProcId, ReadKind, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The perfect-coherence oracle.
#[derive(Debug, Clone)]
pub struct IdealEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    net: Network,
    stats: EngineStats,
    ever_cached: Vec<DenseBitSet>,
}

impl IdealEngine {
    /// Builds the oracle from `cfg` (only cache geometry and network
    /// timing are used).
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let ever_cached = vec![DenseBitSet::default(); cfg.procs as usize];
        IdealEngine {
            cfg,
            caches,
            net,
            stats,
            ever_cached,
        }
    }

    fn fill(&mut self, p: usize, la: LineAddr, req_word: u32, version: u64) {
        let wpl = self.cfg.cache.geometry.words_per_line();
        let (line, _) = self.caches[p].install(la);
        for w in 0..wpl {
            line.set_word_valid(w, true);
        }
        line.set_version(req_word, version);
        self.ever_cached[p].insert(la.0);
    }
}

impl CoherenceEngine for IdealEngine {
    fn name(&self) -> &'static str {
        "IDEAL"
    }

    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        _kind: ReadKind,
        version: u64,
        _now: Cycle,
    ) -> AccessOutcome {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).reads += 1;
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if let Some(line) = self.caches[p].touch_mut(la) {
            // Magically always coherent: no version or tag check.
            line.set_word_accessed(w);
            self.stats.proc_mut(p).read_hits += 1;
            return AccessOutcome::hit();
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
        self.fill(p, la, w, version);
        self.stats.proc_mut(p).record_miss(class, stall);
        AccessOutcome::miss(stall, class)
    }

    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, _now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_valid(w, true);
            line.set_version(w, version);
            line.set_word_accessed(w);
        }
        // No allocation, no traffic: writes are free by fiat.
        1
    }

    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        vec![0; per_proc_now.len()]
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

    fn order_insensitive(&self) -> bool {
        // Per-processor caches with oracle hits: no global state.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    #[test]
    fn only_cold_and_replacement_misses() {
        let mut e = IdealEngine::new(EngineConfig::paper_default(1 << 20));
        let a = WordAddr(0);
        assert_eq!(
            e.read(P0, a, ReadKind::Plain, 0, 0).miss,
            Some(MissClass::Cold)
        );
        // Remote write does not invalidate anything.
        e.write(P1, a, 1, 5);
        let h = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 1, 10);
        assert_eq!(h.miss, None, "the oracle never takes coherence misses");
        let agg = e.stats().aggregate();
        assert_eq!(agg.misses(MissClass::CoherenceTrue), 0);
        assert_eq!(agg.misses(MissClass::Conservative), 0);
    }

    #[test]
    fn writes_cost_nothing() {
        let mut e = IdealEngine::new(EngineConfig::paper_default(1 << 20));
        assert_eq!(e.write(P0, WordAddr(5), 1, 0), 1);
        assert_eq!(e.network().stats().total_words(), 0);
    }
}
