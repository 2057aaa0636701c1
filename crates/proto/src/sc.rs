//! The software cache-bypass (SC) engine.
//!
//! SC enforces coherence with compiler marking alone: every
//! potentially-stale reference is forced to fetch from memory (on a stock
//! microprocessor: a cache-block invalidate followed by a regular load, as
//! the paper notes for the MIPS R10000 and PowerPC). There are no timetags,
//! so a marked reference *always* pays a memory access even when the cached
//! copy was still current — that difference against TPI is exactly the
//! "no intertask locality" limitation the paper tabulates, and such misses
//! are classified [`MissClass::Conservative`] here.
//!
//! Caches are write-through / write-allocate with an infinite write buffer,
//! like TPI.

use crate::stats::{EngineStats, MissClass};
use crate::versions::EpochVersions;
use crate::write_path::WritePath;
use crate::{AccessOutcome, CoherenceEngine, EngineConfig};
use tpi_cache::Cache;
use tpi_mem::{Cycle, DenseBitSet, LineAddr, ProcId, ReadKind, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The SC coherence engine.
#[derive(Debug, Clone)]
pub struct ScEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    wpath: WritePath,
    net: Network,
    stats: EngineStats,
    /// Per-word memory versions, committed at epoch boundaries (the write
    /// buffer's drain instant); the writer sees its own stores at once.
    versions: EpochVersions,
    ever_cached: Vec<DenseBitSet>,
}

impl ScEngine {
    /// Builds an SC engine from `cfg`.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let procs = cfg.procs;
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let wpath = WritePath::new(cfg.procs, cfg.wbuffer, cfg.net.word_cycles);
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let ever_cached = vec![DenseBitSet::default(); cfg.procs as usize];
        ScEngine {
            cfg,
            caches,
            wpath,
            net,
            stats,
            versions: EpochVersions::new(procs),
            ever_cached,
        }
    }

    fn bump_mem_version(&mut self, p: usize, addr: WordAddr, version: u64) {
        self.versions.bump(p, addr, version);
    }

    /// Refills `line_addr` from memory. Word versions never move backwards:
    /// a word the processor wrote this epoch (still in the write buffer) is
    /// kept rather than clobbered with the older memory copy.
    fn fill(&mut self, p: usize, line_addr: LineAddr, req_word: u32, req_version: u64) {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let base = geom.first_word(line_addr).0;
        let cache = &mut self.caches[p];
        let line = match cache.touch_mut(line_addr) {
            Some(line) => line,
            None => cache.install(line_addr).0, // write-through: no victim writeback
        };
        for w in 0..wpl {
            let v = if w == req_word {
                req_version
            } else {
                self.versions.read(p, WordAddr(base + u64::from(w)))
            };
            if !line.word_valid(w) || line.version(w) <= v {
                line.set_word_valid(w, true);
                line.set_version(w, v);
            }
        }
        line.set_word_accessed(req_word);
        self.ever_cached[p].insert(line_addr.0);
    }
}

impl CoherenceEngine for ScEngine {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        _now: Cycle,
    ) -> AccessOutcome {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).reads += 1;
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if kind == ReadKind::Critical {
            let stall = 1 + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            self.stats
                .proc_mut(p)
                .record_miss(MissClass::Uncached, stall);
            return AccessOutcome::miss(stall, MissClass::Uncached);
        }
        let marked = kind.is_marked();
        let mut class: Option<MissClass> = None;
        if let Some(line) = self.caches[p].touch_mut(la) {
            if line.word_valid(w) {
                if !marked {
                    line.set_word_accessed(w);
                    assert!(
                        !self.cfg.verify_freshness || line.version(w) == version,
                        "SC plain hit observed a stale version at {addr}: cached {} vs required {version}",
                        line.version(w)
                    );
                    self.stats.proc_mut(p).read_hits += 1;
                    return AccessOutcome::hit();
                }
                // Forced bypass: unnecessary if the copy was still current.
                class = Some(if line.version(w) == version {
                    MissClass::Conservative
                } else {
                    MissClass::CoherenceTrue
                });
            }
        }
        let class = class.unwrap_or_else(|| {
            if self.ever_cached[p].contains(la.0) {
                MissClass::Replacement
            } else {
                MissClass::Cold
            }
        });
        let line_words = geom.words_per_line();
        let stall = 1 + self.net.line_fetch(line_words);
        self.net.record(TrafficClass::Read, 0);
        self.net.record(TrafficClass::Read, line_words);
        self.fill(p, la, w, version);
        self.stats.proc_mut(p).record_miss(class, stall);
        AccessOutcome::miss(stall, class)
    }

    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        self.bump_mem_version(p, addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if self.caches[p].peek(la).is_some() {
            let line = self.caches[p].touch_mut(la).expect("resident");
            line.set_word_valid(w, true);
            line.set_version(w, version);
            line.set_word_accessed(w);
        } else {
            self.stats.proc_mut(p).write_misses += 1;
            let line_words = geom.words_per_line();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, line_words);
            self.fill(p, la, w, version);
        }
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        self.bump_mem_version(p, addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        // Critical data stays uncached: other lock holders may write the
        // word later in this very epoch, so even our own copy must not be
        // reusable. Drop the word if resident.
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_valid(w, false);
        }
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        // The barrier drains every write buffer, so the versions written
        // this epoch become globally visible here.
        self.versions.commit_boundary();
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);

    fn engine() -> ScEngine {
        ScEngine::new(EngineConfig::paper_default(1 << 20))
    }

    #[test]
    fn marked_reads_always_miss() {
        let mut e = engine();
        let a = WordAddr(0);
        e.write(P0, a, 1, 0);
        // The copy is resident and current, but the bypass mark forces a
        // memory access: the defining SC limitation.
        let m = e.read(P0, a, ReadKind::Bypass, 1, 1);
        assert_eq!(m.miss, Some(MissClass::Conservative));
        // And again — no intertask locality ever develops.
        let m2 = e.read(P0, a, ReadKind::Bypass, 1, 2);
        assert_eq!(m2.miss, Some(MissClass::Conservative));
    }

    #[test]
    fn plain_reads_reuse_within_task() {
        let mut e = engine();
        let a = WordAddr(16);
        let m = e.read(P0, a, ReadKind::Bypass, 0, 0);
        assert_eq!(m.miss, Some(MissClass::Cold));
        // "Partial reuse within a task": the refill serves later plain reads.
        let h = e.read(P0, a, ReadKind::Plain, 0, 1);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn stale_bypass_is_a_true_miss() {
        let mut e = engine();
        let a = WordAddr(32);
        let _ = e.read(ProcId(1), a, ReadKind::Plain, 0, 0);
        e.write(P0, a, 1, 1);
        let m = e.read(ProcId(1), a, ReadKind::Bypass, 1, 2);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
    }

    #[test]
    fn time_read_marks_also_bypass_on_sc() {
        let mut e = engine();
        let a = WordAddr(48);
        e.write(P0, a, 1, 0);
        let m = e.read(P0, a, ReadKind::TimeRead { distance: 5 }, 1, 1);
        assert!(m.miss.is_some(), "SC has no tags; any marked read bypasses");
    }

    #[test]
    fn refill_does_not_clobber_newer_local_word() {
        let mut e = engine();
        let a = WordAddr(64); // line 16: words 64..68
        let sibling = WordAddr(65);
        e.write(P0, sibling, 3, 0); // local write, version 3 (buffered)
                                    // Simulate that memory still holds version 3 of sibling via
                                    // mem_versions (write updated it), so refill keeps >= versions.
        let _ = e.read(P0, a, ReadKind::Bypass, 0, 1);
        let h = e.read(P0, sibling, ReadKind::Plain, 3, 2);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn boundary_only_drains_buffers() {
        let mut e = engine();
        e.write(P0, WordAddr(0), 1, 0);
        let stalls = e.epoch_boundary(&[1000; 16]);
        assert_eq!(stalls[0], 0, "port long since free");
        assert_eq!(stalls[5], 0);
    }
}
