//! The competitive hybrid update/invalidate engine.
//!
//! Pure write-update protocols keep sharer copies fresh but flood the
//! network when a producer writes data nobody reads anymore; pure
//! invalidation protocols pay a full coherence miss for every
//! producer/consumer hand-off. The hybrid scheme (Dahlgren & Stenström)
//! splits the difference *competitively*: a write pushes single-word
//! updates to the other sharers, but each sharer keeps a per-line counter
//! of updates received since its last local access ([`tpi_cache::Line`]'s
//! `updates`, cleared whenever the line is installed) — once the counter
//! reaches a threshold the copy is clearly dead weight and gets
//! invalidated instead, cutting that sharer out of future update traffic.
//!
//! Memory is kept current by write-through, so the directory only tracks
//! sharers (presence bits), never an owner. Invalidation misses are
//! classified per Tullsen–Eggers like the full-map scheme; compiler marks
//! are ignored — the pushed updates are what keep copies fresh, which is
//! exactly what the staleness oracle verifies.

use crate::sharers::{LineTable, SharerSet};
use crate::stats::{EngineStats, MissClass, PendingMisses};
use crate::write_path::WritePath;
use crate::{AccessOutcome, CoherenceEngine, EngineConfig, EpochRefs};
use tpi_cache::Cache;
use tpi_mem::{Cycle, DenseBitSet, DenseTable, LineAddr, ProcId, ReadKind, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The hybrid update/invalidate coherence engine.
#[derive(Debug, Clone)]
pub struct HybridEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    wpath: WritePath,
    net: Network,
    stats: EngineStats,
    mem_versions: DenseTable<u64>,
    ever_cached: Vec<DenseBitSet>,
    /// Directory: per-line sharer presence set (memory is always current,
    /// so presence is all it tracks). Grows with the machine, so the
    /// engine runs unchanged at the E24 large-scale processor counts.
    sharers: LineTable<SharerSet>,
    /// Classification waiting for the next miss after an invalidation
    /// (Tullsen–Eggers), per processor and line.
    pending_class: Vec<PendingMisses>,
    updates_sent: u64,
    invals_sent: u64,
}

impl HybridEngine {
    /// Builds a hybrid engine from `cfg`. The sharer presence set grows
    /// with the machine ([`SharerSet`]), so any processor count the
    /// experiment axis allows works here.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let wpath = WritePath::new(cfg.procs, cfg.wbuffer, cfg.net.word_cycles);
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let n = cfg.procs as usize;
        HybridEngine {
            cfg,
            caches,
            wpath,
            net,
            stats,
            mem_versions: DenseTable::default(),
            ever_cached: vec![DenseBitSet::default(); n],
            sharers: LineTable::default(),
            pending_class: vec![PendingMisses::default(); n],
            updates_sent: 0,
            invals_sent: 0,
        }
    }

    fn bump_mem_version(&mut self, addr: WordAddr, version: u64) {
        let e = self.mem_versions.get_mut(addr.0);
        *e = (*e).max(version);
    }

    fn drop_sharer(&mut self, la: LineAddr, p: usize) {
        if let Some(mask) = self.sharers.get_mut(la.0) {
            mask.remove(p as u32);
        }
    }

    /// Refills `line_addr` from (always-current) memory and registers the
    /// processor as a sharer. Word versions never move backwards. A silent
    /// victim eviction deregisters that line's sharer bit.
    fn fill(&mut self, p: usize, line_addr: LineAddr, req_word: u32, req_version: u64) {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let base = geom.first_word(line_addr).0;
        let cache = &mut self.caches[p];
        let (line, victim) = match cache.touch_mut(line_addr) {
            Some(line) => (line, None),
            None => cache.install(line_addr), // write-through: no writeback
        };
        for w in 0..wpl {
            let v = if w == req_word {
                req_version
            } else {
                self.mem_versions.get(base + u64::from(w))
            };
            if !line.word_valid(w) || line.version(w) <= v {
                line.set_word_valid(w, true);
                line.set_version(w, v);
            }
        }
        line.set_word_accessed(req_word);
        line.updates = 0;
        if let Some(v) = victim {
            self.drop_sharer(v.addr, p);
        }
        self.ever_cached[p].insert(line_addr.0);
        self.sharers.entry(line_addr.0).insert(p as u32);
    }

    /// Pushes a write of `addr` (now at `version`) to every *other*
    /// sharer: an in-place word update while the sharer's competitive
    /// counter is below the threshold, an invalidation once it trips.
    fn push_to_sharers(&mut self, p: usize, la: LineAddr, w: u32, version: u64) {
        let Some(mask) = self.sharers.get_mut(la.0) else {
            return;
        };
        // Walk the presence bits in place, retiring the sharers that drop
        // out; the set is lent out of the directory for the walk.
        let mut mask = std::mem::take(mask);
        mask.retain(|q| {
            let q = q as usize;
            if q == p {
                return true;
            }
            let Some(line) = self.caches[q].peek_mut(la) else {
                // Silently evicted: the pushed message finds no copy;
                // lazily retire the stale presence bit.
                return false;
            };
            line.updates += 1;
            if line.updates >= self.cfg.hybrid_threshold {
                // Competition lost: invalidate (request + ack headers).
                let line = self.caches[q].remove(la).expect("peeked resident");
                let class = if line.word_accessed(w) {
                    MissClass::CoherenceTrue
                } else {
                    MissClass::FalseSharing
                };
                self.pending_class[q].set(la.0, class);
                self.stats.proc_mut(q).invals_received += 1;
                self.net.record(TrafficClass::Coherence, 0);
                self.net.record(TrafficClass::Coherence, 0);
                self.invals_sent += 1;
                false
            } else {
                // Push the word: the sharer's copy stays current.
                let line = self.caches[q].touch_mut(la).expect("peeked resident");
                if !line.word_valid(w) || line.version(w) <= version {
                    line.set_word_valid(w, true);
                    line.set_version(w, version);
                }
                self.net.record(TrafficClass::Coherence, 1);
                self.updates_sent += 1;
                true
            }
        });
        *self.sharers.entry(la.0) = mask;
    }

    /// Checks directory coverage (`tpi-model` invariant
    /// `hybrid-sharer-mask`): every cache holding a line with at least
    /// one valid word must have its presence bit set, or writes to the
    /// line would never be pushed to that copy. The converse is *not*
    /// an invariant — silently evicted sharers are retired lazily, so
    /// stale presence bits are expected.
    pub(crate) fn check_sharer_mask(&self) -> Result<(), String> {
        for (p, cache) in self.caches.iter().enumerate() {
            let mut bad = None;
            cache.for_each_line(|line| {
                if line.any_valid() && bad.is_none() {
                    let present = self
                        .sharers
                        .get(line.addr.0)
                        .is_some_and(|m| m.contains(p as u32));
                    if !present {
                        bad = Some(line.addr);
                    }
                }
            });
            if let Some(la) = bad {
                return Err(format!(
                    "proc {p} caches line {} but its directory presence bit \
                     is clear: future writes would never update or \
                     invalidate this copy",
                    la.0
                ));
            }
        }
        Ok(())
    }

    /// Checks that no cached copy runs ahead of always-current memory
    /// (`tpi-model` invariant `hybrid-word-version`): under write-through,
    /// memory is bumped before any copy, so a cached valid word's version
    /// never exceeds the home's.
    pub(crate) fn check_word_versions(&self) -> Result<(), String> {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        for (p, cache) in self.caches.iter().enumerate() {
            let mut bad = None;
            cache.for_each_line(|line| {
                for w in 0..wpl {
                    if line.word_valid(w) && bad.is_none() {
                        let a = WordAddr(geom.first_word(line.addr).0 + u64::from(w));
                        let mem = self.mem_versions.get(a.0);
                        if line.version(w) > mem {
                            bad = Some((a, line.version(w), mem));
                        }
                    }
                }
            });
            if let Some((a, cached, mem)) = bad {
                return Err(format!(
                    "proc {p} caches word {} at version {cached} ahead of \
                     write-through memory at {mem}",
                    a.0
                ));
            }
        }
        Ok(())
    }

    /// Test-only sabotage for the `tpi-model` seeded-violation tests:
    /// clear processor `p`'s presence bit for the line of `addr` while it
    /// still holds the copy — the lost-sharer directory bug that would
    /// leave the copy permanently stale.
    #[doc(hidden)]
    pub fn debug_drop_sharer_bit(&mut self, p: usize, addr: WordAddr) {
        let la = self.cfg.cache.geometry.line_of(addr);
        if let Some(mask) = self.sharers.get_mut(la.0) {
            mask.remove(p as u32);
        }
    }
}

impl CoherenceEngine for HybridEngine {
    fn name(&self) -> &'static str {
        "HYB"
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
            // Critical data stays uncached, as in the HSCD schemes.
            let stall = 1 + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            self.stats
                .proc_mut(p)
                .record_miss(MissClass::Uncached, stall);
            return AccessOutcome::miss(stall, MissClass::Uncached);
        }
        // Compiler marks are ignored: pushed updates keep copies fresh.
        if let Some(line) = self.caches[p].touch_mut(la) {
            if line.word_valid(w) {
                line.set_word_accessed(w);
                // A local access wins the competition round.
                line.updates = 0;
                assert!(
                    !self.cfg.verify_freshness || line.version(w) == version,
                    "HYB hit observed a stale version at {addr}: cached {} vs required {version}",
                    line.version(w)
                );
                self.stats.proc_mut(p).read_hits += 1;
                return AccessOutcome::hit();
            }
        }
        let class = self.pending_class[p].take(la.0).unwrap_or_else(|| {
            if self.ever_cached[p].contains(la.0) {
                MissClass::Replacement
            } else {
                MissClass::Cold
            }
        });
        let line_words = geom.words_per_line();
        // Memory is always current (write-through): a two-hop clean fetch.
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
        self.bump_mem_version(addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        self.push_to_sharers(p, la, w, version);
        if self.caches[p].peek(la).is_some() {
            let line = self.caches[p].touch_mut(la).expect("resident");
            line.set_word_valid(w, true);
            line.set_version(w, version);
            line.set_word_accessed(w);
            line.updates = 0;
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
        self.bump_mem_version(addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        // Unlike the HSCD schemes, the sharers must still be told: hybrid
        // ignores compiler marks, so their plain copies would otherwise go
        // stale.
        self.push_to_sharers(p, la, w, version);
        // The writer's own copy of critical data stays uncached.
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_valid(w, false);
        }
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    /// An access commutes when no other processor references its line
    /// this epoch, and none references another line resident in its set
    /// (a pushed update or invalidation there would reorder the set's LRU
    /// list, and a miss displaces one of them). A miss or a write also
    /// needs that no other processor still caches the line, or the write
    /// would push to (or invalidate) a copy its holder may evict. A stale
    /// presence bit, whose processor no longer caches the line, is no
    /// holder: only the writer itself retires it.
    fn commutes(&self, proc: ProcId, addr: WordAddr, write: bool, refs: &EpochRefs) -> bool {
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let cache = &self.caches[proc.0 as usize];
        if !refs.only_by(proc, geom, la) {
            return false;
        }
        let w = geom.word_in_line(addr);
        let hit = !write && cache.peek(la).is_some_and(|l| l.word_valid(w));
        if !hit {
            let others_hold = self.sharers.get(la.0).is_some_and(|mask| {
                mask.iter()
                    .any(|q| q != proc.0 && self.caches[q as usize].peek(la).is_some())
            });
            if others_hold {
                return false;
            }
        }
        cache
            .set_residents(la)
            .all(|other| other == la || refs.only_by(proc, geom, other))
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

    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hybrid_updates_sent", self.updates_sent),
            ("hybrid_invals_sent", self.invals_sent),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    fn engine() -> HybridEngine {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.verify_freshness = true;
        HybridEngine::new(cfg)
    }

    #[test]
    fn updates_keep_consumer_copies_fresh() {
        let mut e = engine();
        let a = WordAddr(0);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        e.write(P0, a, 1, 1);
        // The pushed update means no coherence miss for the consumer —
        // the hand-off a pure invalidation protocol always charges.
        assert_eq!(e.read(P1, a, ReadKind::Plain, 1, 2).miss, None);
        assert!(e.op_counts().contains(&("hybrid_updates_sent", 1)));
    }

    #[test]
    fn marked_reads_hit_too() {
        let mut e = engine();
        let a = WordAddr(16);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        e.write(P0, a, 1, 1);
        assert_eq!(e.read(P1, a, ReadKind::Bypass, 1, 2).miss, None);
    }

    #[test]
    fn repeated_updates_trip_the_invalidation_threshold() {
        let mut e = engine();
        let a = WordAddr(32);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        // Default threshold 4: three updates land, the fourth invalidates.
        for v in 1..=4 {
            e.write(P0, a, v, v);
        }
        assert!(e.op_counts().contains(&("hybrid_updates_sent", 3)));
        assert!(e.op_counts().contains(&("hybrid_invals_sent", 1)));
        let m = e.read(P1, a, ReadKind::Plain, 4, 10);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
    }

    #[test]
    fn local_access_resets_the_competition() {
        let mut e = engine();
        let a = WordAddr(48);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        for v in 1..=10 {
            e.write(P0, a, v, v);
            // The consumer keeps reading, so its copy keeps winning.
            assert_eq!(e.read(P1, a, ReadKind::Plain, v, v).miss, None);
        }
        assert!(e.op_counts().contains(&("hybrid_invals_sent", 0)));
    }

    #[test]
    fn untouched_word_invalidation_is_false_sharing() {
        let mut e = engine();
        let a = WordAddr(64); // line 16, word 0
        let sibling = WordAddr(65); // same line, word 1
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        for v in 1..=4 {
            e.write(P0, sibling, v, v);
        }
        // P1 never touched the written word: a false-sharing casualty.
        let m = e.read(P1, a, ReadKind::Plain, 0, 10);
        assert_eq!(m.miss, Some(MissClass::FalseSharing));
    }

    #[test]
    fn critical_writes_still_update_sharers() {
        let mut e = engine();
        let a = WordAddr(128);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        e.write_critical(P0, a, 1, 1);
        // The sharer's plain copy was pushed the new value...
        assert_eq!(e.read(P1, a, ReadKind::Plain, 1, 2).miss, None);
        // ...while the writer's own critical word stays uncached.
        let m = e.read(P0, a, ReadKind::Critical, 1, 3);
        assert_eq!(m.miss, Some(MissClass::Uncached));
    }

    #[test]
    fn boundary_only_drains_buffers() {
        let mut e = engine();
        e.write(P0, WordAddr(0), 1, 0);
        let stalls = e.epoch_boundary(&[1000; 16]);
        assert_eq!(stalls[0], 0, "port long since free");
    }
}
