//! The Two-Phase Invalidation (TPI) engine: the paper's HSCD scheme.
//!
//! Hardware behaviour reproduced here (paper Sections 2.2 and 3):
//!
//! * every cache word has a timetag; writes and fills stamp it with the
//!   current epoch counter;
//! * on a line fill, the *non-requested* words are stamped `counter - 1` to
//!   neutralize implicit same-epoch RAW/WAR through multi-word lines
//!   (intra-epoch false sharing can therefore never satisfy a
//!   distance-0 Time-Read);
//! * a `Time-Read(d)` hits only if the word is valid and its tag is at most
//!   `d` epochs old; a verified hit re-stamps the word (it is provably
//!   fresh *now*), extending its reuse window;
//! * caches are write-through / write-allocate with an infinite write
//!   buffer; write misses allocate in the background and never stall;
//! * at each epoch boundary the counter advances and, on a phase crossing,
//!   out-of-phase words are bulk-invalidated at a fixed cost (128 cycles in
//!   the paper).
//!
//! Misses are classified for the paper's necessary/unnecessary analysis: a
//! failed tag check on a word whose value had *not* actually changed is a
//! `Conservative` (compiler-induced) miss; one whose value changed is a
//! necessary `CoherenceTrue` miss.

use crate::stats::{EngineStats, MissClass};
use crate::versions::EpochVersions;
use crate::write_path::WritePath;
use crate::{AccessOutcome, CoherenceEngine, EngineConfig};
use tpi_cache::{Cache, TagClock, WriteBufferStats, WritePolicy};
use tpi_mem::{Cycle, DenseBitSet, LineAddr, ProcId, ReadKind, Version, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The TPI coherence engine.
#[derive(Debug, Clone)]
pub struct TpiEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    clock: TagClock,
    wpath: WritePath,
    net: Network,
    stats: EngineStats,
    /// Logical current version of every written word ("memory contents"),
    /// visible to other processors at the next epoch boundary (the write
    /// buffer's drain instant); the writer sees its own stores at once.
    versions: EpochVersions,
    /// Lines each processor has ever cached (cold/replacement split).
    ever_cached: Vec<DenseBitSet>,
    /// Optional on-chip L1s (two-level TPI, Section 3).
    l1s: Option<Vec<Cache>>,
    /// Profiling-only operation counters (see [`CoherenceEngine::op_counts`]).
    ops: OpCounters,
    /// Test-only sabotage: when set, epoch boundaries advance the tag
    /// clock but never apply its reset events (see
    /// [`TpiEngine::debug_skip_resets`]).
    skip_resets: bool,
}

/// Cheap monotonic counters over the engine's hot operations; purely
/// observational (reported through [`CoherenceEngine::op_counts`]).
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    /// Per-word timetag freshness checks (marked reads on valid words).
    tag_checks: u64,
    /// Line fills (read misses and write-allocates).
    fills: u64,
    /// Verified-hit re-stamps.
    restamps: u64,
    /// Memory shadow-version updates (one per write).
    version_bumps: u64,
}

impl TpiEngine {
    /// Builds a TPI engine from `cfg`.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let procs = cfg.procs;
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let clock = TagClock::new(cfg.tag_bits, cfg.reset_strategy);
        let wpath = WritePath::new(cfg.procs, cfg.wbuffer, cfg.net.word_cycles);
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let ever_cached = vec![DenseBitSet::default(); cfg.procs as usize];
        let l1s = cfg.l1.map(|l1| {
            let l1_cfg = tpi_cache::CacheConfig {
                size_bytes: l1.size_bytes,
                assoc: l1.assoc,
                geometry: cfg.cache.geometry,
            };
            (0..cfg.procs).map(|_| Cache::new(l1_cfg)).collect()
        });
        TpiEngine {
            cfg,
            caches,
            clock,
            wpath,
            net,
            stats,
            versions: EpochVersions::new(procs),
            ever_cached,
            l1s,
            ops: OpCounters::default(),
            skip_resets: false,
        }
    }

    /// Test-only sabotage for the `tpi-model` seeded-violation tests:
    /// keep advancing the epoch clock but drop its phase-reset events, so
    /// out-of-phase words survive a tag-range invalidation and alias to
    /// fresh epochs — exactly the bug two-phase invalidation exists to
    /// prevent (`tpi-phase-discipline` catches it).
    #[doc(hidden)]
    pub fn debug_skip_resets(&mut self) {
        self.skip_resets = true;
    }

    /// Checks the two-phase reset discipline (`tpi-model` invariant
    /// `tpi-phase-discipline`): no cached valid word's timetag may be
    /// older than the reset machinery allows. With tag modulus `m` and
    /// half `h = m/2`, a surviving word in the same phase half as the
    /// current tag is at most `t mod h` epochs old, one in the other half
    /// at most `(t mod h) + h`; under [`tpi_cache::ResetStrategy::FullFlushOnWrap`] every
    /// survivor is at most `t` old. Anything older must have been wiped
    /// by a reset — if it wasn't, its tag can alias a future epoch.
    pub(crate) fn check_phase_discipline(&self) -> Result<(), String> {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let t = u64::from(self.clock.hw_tag());
        let h = self.clock.modulus() / 2;
        for (p, cache) in self.caches.iter().enumerate() {
            let mut bad: Option<(u64, u16, u64, u64)> = None;
            cache.for_each_line(|line| {
                for w in 0..wpl {
                    if !line.word_valid(w) {
                        continue;
                    }
                    let tag = line.timetag(w);
                    let age = self.clock.age_of(tag);
                    let limit = match self.cfg.reset_strategy {
                        tpi_cache::ResetStrategy::FullFlushOnWrap => t,
                        tpi_cache::ResetStrategy::TwoPhase => {
                            let same_half = (u64::from(tag) < h) == (t < h);
                            if same_half {
                                t % h
                            } else {
                                (t % h) + h
                            }
                        }
                    };
                    if age > limit && bad.is_none() {
                        let addr = geom.first_word(line.addr).0 + u64::from(w);
                        bad = Some((addr, tag, age, limit));
                    }
                }
            });
            if let Some((addr, tag, age, limit)) = bad {
                return Err(format!(
                    "proc {p} word {addr} kept out-of-phase timetag {tag} \
                     (age {age} > allowed {limit} at epoch tag {t}): a phase \
                     reset failed to invalidate it"
                ));
            }
        }
        Ok(())
    }

    /// The hardware epoch clock (exposed for tests and ablation tooling).
    #[must_use]
    pub fn clock(&self) -> &TagClock {
        &self.clock
    }

    /// Aggregate write-buffer statistics (for the E12 ablation).
    #[must_use]
    pub fn write_buffer_stats(&self) -> WriteBufferStats {
        self.wpath.buffer_stats()
    }

    /// Copies the current off-chip line into processor `p`'s on-chip L1
    /// (valid words and shadow versions only; the L1 carries no timetags).
    fn refill_l1(&mut self, p: usize, la: LineAddr) {
        let Some(l1s) = self.l1s.as_mut() else { return };
        let Some(l2_line) = self.caches[p].peek(la) else {
            return;
        };
        let wpl = self.cfg.cache.geometry.words_per_line();
        let (line, _) = l1s[p].install(la);
        for w in 0..wpl {
            if l2_line.word_valid(w) {
                line.set_word_valid(w, true);
                line.set_version(w, l2_line.version(w));
            }
        }
    }

    fn prev_tag(&self) -> u16 {
        let m = self.clock.modulus();
        ((self.clock.epoch().0 + m - 1) % m) as u16
    }

    /// The version of `addr` as processor `p` observes it (memory plus
    /// `p`'s own buffered stores).
    fn mem_version(&self, p: usize, addr: WordAddr) -> Version {
        self.versions.read(p, addr)
    }

    /// Versions grow monotonically per word; critical writes may be
    /// replayed out of their true order, so memory keeps the max.
    fn bump_mem_version(&mut self, p: usize, addr: WordAddr, version: Version) {
        self.ops.version_bumps += 1;
        self.versions.bump(p, addr, version);
    }

    /// Brings `line_addr` into processor `p`'s cache with the TPI fill
    /// rule: the requested word is stamped with the current epoch, every
    /// other refreshed word with `epoch - 1`. Words already stamped in the
    /// current epoch (local writes / verified reads) are left untouched.
    fn fill(&mut self, p: usize, line_addr: LineAddr, req_word: u32, req_version: Version) {
        self.ops.fills += 1;
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let cur = self.clock.hw_tag();
        let prev = self.prev_tag();
        let base = geom.first_word(line_addr).0;
        let cache = &mut self.caches[p];
        let line = match cache.touch_mut(line_addr) {
            Some(line) => line,
            None => {
                let (line, victim) = cache.install(line_addr);
                // Under write-through, victims need no writeback; under
                // write-back-at-boundary a dirty victim flushes on eviction.
                if let Some(v) = victim.filter(|v| v.any_dirty()) {
                    let dirty = (0..wpl).filter(|&wd| v.word_dirty(wd)).count() as u32;
                    self.net.record(TrafficClass::Write, dirty);
                    self.stats.proc_mut(p).write_backs += 1;
                }
                line
            }
        };
        for w in 0..wpl {
            if w == req_word {
                line.set_word_valid(w, true);
                line.set_timetag(w, cur);
                line.set_version(w, req_version);
            } else if !line.word_valid(w) || self.clock.age_of(line.timetag(w)) >= 1 {
                line.set_word_valid(w, true);
                line.set_timetag(w, prev);
                line.set_version(w, self.versions.read(p, WordAddr(base + u64::from(w))));
            }
            // Words stamped in the current epoch hold local data at least
            // as new as memory; leave them alone.
        }
        line.set_word_accessed(req_word);
        self.ever_cached[p].insert(line_addr.0);
    }
}

impl CoherenceEngine for TpiEngine {
    fn name(&self) -> &'static str {
        "TPI"
    }

    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: Version,
        _now: Cycle,
    ) -> AccessOutcome {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).reads += 1;
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        let cur = self.clock.hw_tag();
        // Two-level operation (Section 3): plain loads may be satisfied by
        // the stock on-chip cache; marked loads execute as a cache-op that
        // drops the L1 word, then consult the tagged off-chip cache.
        let mut l2_cost: Cycle = 0;
        if let Some(l1s) = self.l1s.as_mut() {
            let l1 = &mut l1s[p];
            if kind == ReadKind::Plain {
                if let Some(line) = l1.touch_mut(la) {
                    if line.word_valid(w) {
                        assert!(
                            !self.cfg.verify_freshness || line.version(w) == version,
                            "L1 hit observed a stale version at {addr}"
                        );
                        self.stats.proc_mut(p).read_hits += 1;
                        return AccessOutcome::hit();
                    }
                }
            } else if let Some(line) = l1.touch_mut(la) {
                line.set_word_valid(w, false);
            }
            l2_cost = self.cfg.l1.expect("l1s implies l1 config").l2_hit_cycles;
        }
        if kind == ReadKind::Critical {
            // Section 5: critical-section data is serialized by the lock,
            // not by epochs; fetch the word from memory, uncached.
            let stall = 1 + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            self.stats
                .proc_mut(p)
                .record_miss(MissClass::Uncached, stall);
            return AccessOutcome::miss(stall, MissClass::Uncached);
        }
        let mut class: Option<MissClass> = None;
        if let Some(line) = self.caches[p].touch_mut(la) {
            if line.word_valid(w) {
                if kind.is_marked() {
                    self.ops.tag_checks += 1;
                }
                let fresh = match kind {
                    ReadKind::Plain => true,
                    ReadKind::TimeRead { distance } => self
                        .clock
                        .fresh_within(line.timetag(w), u32::from(distance)),
                    // A Bypass mark reaching the TPI engine behaves like the
                    // strictest Time-Read.
                    ReadKind::Bypass => self.clock.fresh_within(line.timetag(w), 0),
                    ReadKind::Critical => unreachable!("handled above"),
                };
                if fresh {
                    if kind.is_marked() && self.cfg.restamp_verified_hits {
                        // The word is provably fresh *now*: re-stamp it.
                        line.set_timetag(w, cur);
                        self.ops.restamps += 1;
                    }
                    line.set_word_accessed(w);
                    assert!(
                        !self.cfg.verify_freshness || line.version(w) == version,
                        "TPI hit observed a stale version at {addr}: cached {} vs required {version}",
                        line.version(w)
                    );
                    self.stats.proc_mut(p).read_hits += 1;
                    self.refill_l1(p, la);
                    return AccessOutcome {
                        stall: 1 + l2_cost,
                        miss: None,
                    };
                }
                class = Some(if line.version(w) == version {
                    MissClass::Conservative
                } else {
                    MissClass::CoherenceTrue
                });
            } else {
                class = Some(MissClass::Reset);
            }
        }
        let line_present = class.is_some();
        let class = class.unwrap_or_else(|| {
            if self.ever_cached[p].contains(la.0) {
                MissClass::Replacement
            } else {
                MissClass::Cold
            }
        });
        // A failed tag check on a resident line may refetch just the word
        // (the E22 ablation); line-absent misses always bring the line in.
        if line_present && self.cfg.coherence_fetch == crate::FetchGranularity::Word {
            let stall = 1 + l2_cost + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            let mem_version = self.mem_version(p, addr).max(version);
            let cur_tag = self.clock.hw_tag();
            let line = self.caches[p].touch_mut(la).expect("resident");
            line.set_word_valid(w, true);
            line.set_timetag(w, cur_tag);
            line.set_version(w, mem_version);
            line.set_word_accessed(w);
            self.refill_l1(p, la);
            self.stats.proc_mut(p).record_miss(class, stall);
            return AccessOutcome::miss(stall, class);
        }
        let line_words = geom.words_per_line();
        let stall = 1 + l2_cost + self.net.line_fetch(line_words);
        self.net.record(TrafficClass::Read, 0);
        self.net.record(TrafficClass::Read, line_words);
        self.fill(p, la, w, version);
        self.refill_l1(p, la);
        self.stats.proc_mut(p).record_miss(class, stall);
        AccessOutcome::miss(stall, class)
    }

    fn write(&mut self, proc: ProcId, addr: WordAddr, version: Version, now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        self.bump_mem_version(p, addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        let cur = self.clock.hw_tag();
        let resident = self.caches[p].peek(la).is_some();
        if resident {
            let line = self.caches[p].touch_mut(la).expect("resident");
            let nv = if line.word_valid(w) {
                line.version(w).max(version)
            } else {
                version
            };
            line.set_word_valid(w, true);
            line.set_timetag(w, cur);
            line.set_version(w, nv);
            line.set_word_accessed(w);
        } else {
            // Write-allocate: the line is fetched in the background under
            // weak consistency (no processor stall).
            self.stats.proc_mut(p).write_misses += 1;
            let line_words = geom.words_per_line();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, line_words);
            self.fill(p, la, w, version);
        }
        match self.cfg.write_policy {
            WritePolicy::Through => {
                self.wpath.write(p, addr, now, &mut self.net);
            }
            WritePolicy::BackAtBoundary => {
                // Mark dirty; the word flushes in the boundary burst.
                let line = self.caches[p].touch_mut(la).expect("just ensured resident");
                line.set_word_dirty(w, true);
            }
        }
        if let Some(l1s) = self.l1s.as_mut() {
            // The stock core's own store updates its L1 copy in place.
            if let Some(line) = l1s[p].touch_mut(la) {
                line.set_word_valid(w, true);
                line.set_version(w, version);
            }
        }
        1
    }

    fn write_critical(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        version: Version,
        now: Cycle,
    ) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        self.bump_mem_version(p, addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        // Critical data stays uncached: other lock holders may write the
        // word later in this very epoch, so even our own copy must not be
        // reusable. Drop the word if resident, at both levels.
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_valid(w, false);
        }
        if let Some(l1s) = self.l1s.as_mut() {
            if let Some(line) = l1s[p].touch_mut(la) {
                line.set_word_valid(w, false);
            }
        }
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        // The barrier drains every write buffer, so the versions written
        // this epoch become globally visible here.
        self.versions.commit_boundary();
        let mut stalls = self.wpath.boundary(per_proc_now);
        if self.cfg.write_policy == WritePolicy::BackAtBoundary {
            // Burst-flush every dirty word: the whole drain lands on the
            // barrier (the "bursty traffic / longer invalidation latency"
            // cost the paper cites from [10]).
            let word_cycles = self.cfg.net.word_cycles;
            #[allow(clippy::needless_range_loop)] // p indexes three parallel structures
            for p in 0..self.cfg.procs as usize {
                let mut words = 0u64;
                let mut lines = 0u64;
                self.caches[p].retain_lines(|line| {
                    if line.any_dirty() {
                        lines += 1;
                        for wd in 0..self.cfg.cache.geometry.words_per_line() {
                            if line.word_dirty(wd) {
                                words += 1;
                            }
                        }
                        line.clean_all();
                    }
                    true
                });
                if words > 0 {
                    self.stats.proc_mut(p).write_backs += lines;
                    // One message per dirty line: header + its dirty words.
                    for _ in 0..lines {
                        self.net.record(TrafficClass::Write, 0);
                    }
                    for _ in 0..words {
                        self.net.record(TrafficClass::Write, 1);
                    }
                    stalls[p] += (words + lines) * word_cycles;
                }
            }
        }
        if let Some(ev) = self.clock.advance() {
            if !self.skip_resets {
                for (p, stall) in stalls.iter_mut().enumerate() {
                    let dropped = self.caches[p].apply_reset(ev);
                    self.stats.proc_mut(p).reset_words += dropped;
                    *stall += self.cfg.reset_cycles;
                }
            }
        }
        stalls
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
            ("tpi_tag_checks", self.ops.tag_checks),
            ("tpi_fills", self.ops.fills),
            ("tpi_restamps", self.ops.restamps),
            ("tpi_version_bumps", self.ops.version_bumps),
        ]
    }

    fn order_insensitive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_cache::ResetStrategy;

    fn engine() -> TpiEngine {
        TpiEngine::new(EngineConfig::paper_default(1 << 20))
    }

    fn boundary(e: &mut TpiEngine) {
        let zeros = vec![0; e.cfg.procs as usize];
        let _ = e.epoch_boundary(&zeros);
    }

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    #[test]
    fn cold_miss_then_plain_hit() {
        let mut e = engine();
        let a = WordAddr(100);
        let m = e.read(P0, a, ReadKind::Plain, 0, 0);
        assert_eq!(m.miss, Some(MissClass::Cold));
        assert!(m.stall > 100);
        let h = e.read(P0, a, ReadKind::Plain, 0, 10);
        assert_eq!(h.miss, None);
        assert_eq!(h.stall, 1);
        let s = e.stats().proc(0);
        assert_eq!(s.reads, 2);
        assert_eq!(s.read_hits, 1);
    }

    #[test]
    fn local_write_satisfies_same_epoch_time_read() {
        let mut e = engine();
        let a = WordAddr(8);
        e.write(P0, a, 1, 0);
        let h = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 1, 5);
        assert_eq!(h.miss, None, "own write this epoch is distance-0 fresh");
    }

    #[test]
    fn cross_epoch_reuse_within_distance() {
        let mut e = engine();
        let a = WordAddr(16);
        e.write(P0, a, 1, 0);
        boundary(&mut e);
        boundary(&mut e);
        // Stamped two epochs ago: d=2 hits, d=1 misses.
        let h = e.read(P0, a, ReadKind::TimeRead { distance: 2 }, 1, 0);
        assert_eq!(h.miss, None);
        // The verified hit re-stamped the word: d=0 now hits too.
        let h2 = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 1, 1);
        assert_eq!(h2.miss, None);
    }

    #[test]
    fn conservative_miss_when_value_unchanged() {
        let mut e = engine();
        let a = WordAddr(24);
        e.write(P0, a, 1, 0);
        boundary(&mut e);
        boundary(&mut e);
        let m = e.read(P0, a, ReadKind::TimeRead { distance: 1 }, 1, 0);
        assert_eq!(
            m.miss,
            Some(MissClass::Conservative),
            "value did not change"
        );
    }

    #[test]
    fn true_coherence_miss_when_value_changed() {
        let mut e = engine();
        let a = WordAddr(32);
        // P1 caches version 0 (cold fill).
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        boundary(&mut e);
        // P0 writes version 1.
        e.write(P0, a, 1, 0);
        boundary(&mut e);
        // P1's Time-Read at distance 1: tag is 2 epochs old -> miss; the
        // word's value really changed -> necessary miss.
        let m = e.read(P1, a, ReadKind::TimeRead { distance: 1 }, 1, 0);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
        // And afterwards P1 sees version 1.
        let h = e.read(P1, a, ReadKind::TimeRead { distance: 0 }, 1, 1);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn fill_stamps_other_words_one_epoch_back() {
        let mut e = engine();
        // Words 40..44 share a line (4-word lines).
        let req = WordAddr(40);
        let other = WordAddr(41);
        let _ = e.read(P0, req, ReadKind::Plain, 0, 0);
        // Same epoch, distance 0 on the sibling word: must MISS (it could
        // have been written by a concurrent task before our fill).
        let m = e.read(P0, other, ReadKind::TimeRead { distance: 0 }, 0, 1);
        assert_eq!(m.miss, Some(MissClass::Conservative));
        // With distance 1 the prefetched sibling is usable.
        let _ = e.read(P0, WordAddr(44), ReadKind::Plain, 0, 2); // new line
        let h = e.read(P0, WordAddr(45), ReadKind::TimeRead { distance: 1 }, 0, 3);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn phase_reset_invalidates_and_classifies() {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.tag_bits = 2; // tags 0..4, phase crossings every 2 epochs
        let mut e = TpiEngine::new(cfg);
        let a = WordAddr(4);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0); // stamped epoch 0
                                                      // Advance 4 epochs; crossing at epoch 2 invalidates tags {2,3},
                                                      // crossing at 4 invalidates {0,1} — which drops our word.
        let mut reset_stall = 0;
        for _ in 0..4 {
            let zeros = vec![0; 16];
            reset_stall += e.epoch_boundary(&zeros)[0];
        }
        assert_eq!(
            reset_stall,
            2 * 128,
            "two phase crossings at 128 cycles each"
        );
        assert!(e.stats().proc(0).reset_words >= 1);
        let m = e.read(P0, a, ReadKind::Plain, 0, 0);
        // Whole line was dropped (all 4 words out of phase), so the line is
        // gone: a replacement-class miss... unless only words were dropped.
        assert!(matches!(
            m.miss,
            Some(MissClass::Replacement | MissClass::Reset)
        ));
    }

    #[test]
    fn write_miss_allocates_without_stall() {
        let mut e = engine();
        let stall = e.write(P0, WordAddr(200), 1, 0);
        assert_eq!(stall, 1);
        assert_eq!(e.stats().proc(0).write_misses, 1);
        // Allocation brought the line in: a Plain read of the same word hits.
        let h = e.read(P0, WordAddr(200), ReadKind::Plain, 1, 1);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn replacement_miss_classified() {
        let mut cfg = EngineConfig::paper_default(1 << 30);
        cfg.cache.size_bytes = 128; // 8 lines, direct mapped
        let mut e = TpiEngine::new(cfg);
        let a = WordAddr(0);
        let conflicting = WordAddr(8 * 4); // line 8 maps to set 0
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0);
        let _ = e.read(P0, conflicting, ReadKind::Plain, 0, 1);
        let m = e.read(P0, a, ReadKind::Plain, 0, 2);
        assert_eq!(m.miss, Some(MissClass::Replacement));
    }

    #[test]
    fn traffic_recorded_for_misses_and_writes() {
        let mut e = engine();
        let _ = e.read(P0, WordAddr(0), ReadKind::Plain, 0, 0);
        e.write(P0, WordAddr(0), 1, 1);
        let s = e.network().stats();
        assert!(s.words(TrafficClass::Read) >= 5, "request + line reply");
        // Write-through traffic appears once the write is pushed.
        assert_eq!(s.words(TrafficClass::Write), 2);
    }

    #[test]
    fn fill_preserves_words_stamped_this_epoch() {
        let mut e = engine();
        // Write word 1 of line 0 (allocates, stamps current epoch, version 7).
        e.write(P0, WordAddr(1), 7, 0);
        // Evict nothing; miss on sibling word 0 via a failed tag check is
        // impossible same-epoch, so force a refill through another line
        // first is unnecessary: directly re-read word 0 (invalid? no — the
        // allocation validated the whole line). Instead simulate a refill:
        // read word 0 with Bypass (strictest check) after one boundary.
        boundary(&mut e);
        let m = e.read(P0, WordAddr(0), ReadKind::Bypass, 0, 10);
        assert!(m.miss.is_some(), "stale-checked sibling read misses");
        // The refill must NOT have clobbered word 1 if it were stamped this
        // epoch; it was stamped last epoch, so it is refreshed from memory
        // (same version 7, tag one epoch old).
        let h = e.read(P0, WordAddr(1), ReadKind::TimeRead { distance: 1 }, 7, 20);
        assert_eq!(h.miss, None);
        // Now write word 2 this epoch, then refill the line again via a
        // bypass read of word 3: word 2's local stamp must survive.
        e.write(P0, WordAddr(2), 9, 30);
        let _ = e.read(P0, WordAddr(3), ReadKind::Bypass, 0, 40);
        let h2 = e.read(P0, WordAddr(2), ReadKind::TimeRead { distance: 0 }, 9, 50);
        assert_eq!(
            h2.miss, None,
            "same-epoch local write must survive a line refill"
        );
    }

    #[test]
    fn two_level_plain_hits_in_l1_marked_reads_check_tags() {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.l1 = Some(crate::L1Config::paper_default());
        let mut e = TpiEngine::new(cfg);
        let a = WordAddr(64);
        // Cold miss fills both levels.
        let m = e.read(P0, a, ReadKind::Plain, 0, 0);
        assert!(m.miss.is_some());
        // Plain re-read: 1-cycle L1 hit.
        let h = e.read(P0, a, ReadKind::Plain, 0, 10);
        assert_eq!(h.stall, 1);
        // Marked re-read: cache-op + off-chip tag check (5-cycle L2 hit).
        let h2 = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 0, 20);
        assert_eq!(h2.miss, None);
        assert_eq!(h2.stall, 1 + 5, "marked reads bypass the L1");
        // And afterwards the L1 word is refilled: plain read is 1 cycle.
        let h3 = e.read(P0, a, ReadKind::Plain, 0, 30);
        assert_eq!(h3.stall, 1);
    }

    #[test]
    fn two_level_own_writes_keep_l1_coherent() {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.l1 = Some(crate::L1Config::paper_default());
        let mut e = TpiEngine::new(cfg);
        let a = WordAddr(128);
        let _ = e.read(P0, a, ReadKind::Plain, 1, 0);
        e.write(P0, a, 2, 10);
        // Plain L1 hit must observe the new version (the freshness assert
        // inside would fire otherwise).
        let h = e.read(P0, a, ReadKind::Plain, 2, 20);
        assert_eq!(h.stall, 1);
    }

    #[test]
    fn op_counts_track_fills_checks_and_bumps() {
        let mut e = engine();
        let a = WordAddr(16);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0); // cold fill
        e.write(P0, a, 1, 1); // version bump, resident line
        let _ = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 1, 2); // tag check + restamp
        let ops: std::collections::HashMap<_, _> = e.op_counts().into_iter().collect();
        assert_eq!(ops["tpi_fills"], 1);
        assert_eq!(ops["tpi_version_bumps"], 1);
        assert_eq!(ops["tpi_tag_checks"], 1);
        assert_eq!(ops["tpi_restamps"], 1);
    }

    #[test]
    fn full_flush_strategy_drops_everything_at_wrap() {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.tag_bits = 2;
        cfg.reset_strategy = ResetStrategy::FullFlushOnWrap;
        let mut e = TpiEngine::new(cfg);
        let _ = e.read(P0, WordAddr(0), ReadKind::Plain, 0, 0);
        for _ in 0..4 {
            boundary(&mut e);
        }
        assert!(
            e.stats().proc(0).reset_words >= 4,
            "whole line dropped at wrap"
        );
    }
}
