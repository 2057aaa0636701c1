//! Full-map directory engine (and its LimitLess variant).
//!
//! A three-state (Invalid / Read-Shared / Write-Exclusive) invalidation
//! protocol with a full-map directory (Censier & Feautrier \[8\]) over
//! write-back caches — the paper's hardware comparison point. The directory
//! is precise: evictions notify the home node, so every presence bit
//! corresponds to a cached copy (checked by
//! [`DirectoryEngine::verify_invariants`]).
//!
//! Timing follows the paper's weak-consistency model: reads stall for the
//! full directory transaction (two network hops for clean lines, three when
//! a dirty copy must be recalled from its owner); writes retire in the
//! background (1 processor cycle) while their invalidation traffic is
//! accounted and remote copies drop immediately.
//!
//! Invalidation-induced misses are classified true- or false-sharing with
//! the Tullsen–Eggers test \[34\]: an invalidation whose written word the
//! local processor never touched since fill is a false-sharing
//! invalidation, and the next miss on that line a false-sharing miss.
//!
//! The **LimitLess** variant (Agarwal et al. \[2\]) keeps only `i` hardware
//! pointers per entry; when a line acquires more sharers, directory
//! transactions on it take a software trap at the home node, adding a fixed
//! penalty (and the entry falls back to a software full map, so precision
//! is unaffected).

use crate::sharers::{LineRecord, LineTable, SharerSet};
use crate::stats::{EngineStats, MissClass, PendingMisses};
use crate::{AccessOutcome, CoherenceEngine, EngineConfig, EpochRefs};
use tpi_cache::{Cache, Evicted, LineState};
use tpi_mem::{Cycle, DenseBitSet, DenseTable, LineAddr, ProcId, ReadKind, Version, WordAddr};
use tpi_net::{Network, TrafficClass};

#[derive(Debug, Clone, Default)]
struct DirEntry {
    /// Write-exclusive holder, if any.
    owner: Option<u32>,
    /// Presence bits of read-shared holders. The bitmap grows with the
    /// machine ([`SharerSet`]), so the full-map *storage* cost the paper
    /// charges against this scheme — O(P) bits per line — is modelled
    /// faithfully rather than capped at a single machine word.
    sharers: SharerSet,
}

impl LineRecord for DirEntry {
    fn is_empty(&self) -> bool {
        self.owner.is_none() && self.sharers.is_empty()
    }
}

impl DirEntry {
    fn holder_count(&self) -> u32 {
        self.sharers.count() + u32::from(self.owner.is_some())
    }
}

/// Full-map (or LimitLess) directory engine.
#[derive(Debug, Clone)]
pub struct DirectoryEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    net: Network,
    stats: EngineStats,
    /// Directory entries by line address; an empty entry is absent.
    directory: LineTable<DirEntry>,
    mem_versions: DenseTable<Version>,
    ever_cached: Vec<DenseBitSet>,
    /// Pending classification for the next miss after an invalidation.
    pending_class: Vec<PendingMisses>,
    /// `Some((pointers, trap_cycles))` for LimitLess.
    limitless: Option<(u32, Cycle)>,
    name: &'static str,
    /// Test-only sabotage: declare every access commuting.
    commutes_always: bool,
    /// Test-only sabotage: claim order insensitivity.
    claims_order_insensitive: bool,
}

impl DirectoryEngine {
    /// Builds the full-map variant.
    ///
    /// Presence bits grow with the machine ([`SharerSet`]), so the same
    /// engine serves the paper's 16-processor simulations and the
    /// large-scale 64–1024-processor study (EXPERIMENTS.md E24).
    #[must_use]
    pub fn full_map(cfg: EngineConfig) -> Self {
        Self::build(cfg, None, "HW")
    }

    /// Builds the LimitLess variant with `cfg.limitless_pointers` hardware
    /// pointers.
    #[must_use]
    pub fn limitless(cfg: EngineConfig) -> Self {
        let ll = Some((cfg.limitless_pointers, cfg.limitless_trap_cycles));
        Self::build(cfg, ll, "LL")
    }

    fn build(cfg: EngineConfig, limitless: Option<(u32, Cycle)>, name: &'static str) -> Self {
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        DirectoryEngine {
            caches,
            net,
            stats,
            directory: LineTable::default(),
            mem_versions: DenseTable::default(),
            ever_cached: vec![DenseBitSet::default(); cfg.procs as usize],
            pending_class: vec![PendingMisses::default(); cfg.procs as usize],
            limitless,
            name,
            commutes_always: false,
            claims_order_insensitive: false,
            cfg,
        }
    }

    /// LimitLess trap check: charges a trap if the entry has overflowed the
    /// hardware pointers. Returns the extra read-stall cycles.
    fn trap_penalty(&mut self, p: usize, la: LineAddr) -> Cycle {
        let Some((pointers, trap_cycles)) = self.limitless else {
            return 0;
        };
        let overflowed = self
            .directory
            .get(la.0)
            .is_some_and(|e| e.holder_count() > pointers);
        if overflowed {
            self.stats.proc_mut(p).traps += 1;
            self.net.record(TrafficClass::Coherence, 1);
            trap_cycles
        } else {
            0
        }
    }

    /// Removes processor `q`'s copy because of a write to `word`; leaves
    /// the classification for `q`'s next miss on the line.
    fn invalidate_copy(&mut self, q: u32, la: LineAddr, word: u32) {
        self.net.record(TrafficClass::Coherence, 0); // invalidation
        self.net.record(TrafficClass::Coherence, 0); // acknowledgement
        if let Some(victim) = self.caches[q as usize].remove(la) {
            let fs = !victim.word_accessed(word);
            let class = if fs {
                MissClass::FalseSharing
            } else {
                MissClass::CoherenceTrue
            };
            self.pending_class[q as usize].set(la.0, class);
            self.stats.proc_mut(q as usize).invals_received += 1;
            debug_assert!(!victim.any_dirty(), "shared copies are clean");
        } else {
            debug_assert!(false, "directory presence bit without a cached copy");
        }
    }

    /// Invalidates every holder except `except`.
    fn invalidate_sharers(&mut self, la: LineAddr, word: u32, except: u32) {
        let Some(e) = self.directory.get_mut(la.0) else {
            return;
        };
        // Walk the presence bits in place: the set is lent out of its
        // entry for the walk (invalidations never touch the directory).
        let mut sharers = std::mem::take(&mut e.sharers);
        for q in sharers.iter().filter(|&q| q != except) {
            self.invalidate_copy(q, la, word);
        }
        sharers.retain_only(except);
        self.directory.entry(la.0).sharers = sharers;
    }

    /// Installs a full line in `p`'s cache; handles the victim.
    fn fill(
        &mut self,
        p: usize,
        la: LineAddr,
        req_word: u32,
        req_version: Version,
        state: LineState,
    ) {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let base = geom.first_word(la).0;
        let (line, victim) = self.caches[p].install(la);
        line.state = state;
        for w in 0..wpl {
            line.set_word_valid(w, true);
            let mem = self.mem_versions.get(base + u64::from(w));
            let v = if w == req_word {
                req_version.max(mem)
            } else {
                mem
            };
            line.set_version(w, v);
        }
        line.set_word_accessed(req_word);
        if let Some(v) = victim {
            self.handle_eviction(p, &v);
        }
        self.ever_cached[p].insert(la.0);
    }

    /// Write-back + directory notification for an evicted line.
    fn handle_eviction(&mut self, p: usize, victim: &Evicted) {
        let la = victim.addr;
        if victim.state == LineState::Exclusive && victim.any_dirty() {
            self.net.record(
                TrafficClass::Write,
                self.cfg.cache.geometry.words_per_line(),
            );
            self.stats.proc_mut(p).write_backs += 1;
        } else {
            // Replacement hint keeps the directory precise.
            self.net.record(TrafficClass::Coherence, 0);
        }
        if let Some(e) = self.directory.get_mut(la.0) {
            if e.owner == Some(p as u32) {
                e.owner = None;
            }
            e.sharers.remove(p as u32);
        }
    }

    /// Checks the directory/cache cross-invariants; returns a description
    /// of the first violation. Empty directory entries count as absent.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn verify_invariants(&self) -> Result<(), String> {
        for (addr, e) in self.directory.iter() {
            let la = LineAddr(addr);
            if let Some(o) = e.owner {
                if e.sharers.iter().any(|q| q != o) {
                    return Err(format!("{la}: owner {o} coexists with sharers"));
                }
                match self.caches[o as usize].peek(la) {
                    Some(l) if l.state == LineState::Exclusive => {}
                    _ => return Err(format!("{la}: owner {o} has no exclusive copy")),
                }
            }
            for q in e.sharers.iter() {
                match self.caches[q as usize].peek(la) {
                    Some(l) if l.state == LineState::Shared => {}
                    _ => return Err(format!("{la}: presence bit {q} without shared copy")),
                }
            }
        }
        // Converse: every cached line has a directory record.
        for (p, cache) in self.caches.iter().enumerate() {
            let mut bad: Option<String> = None;
            cache.for_each_line(|l| {
                let e = self.directory.get(l.addr.0);
                let present = match l.state {
                    LineState::Exclusive => e.is_some_and(|e| e.owner == Some(p as u32)),
                    LineState::Shared => e.is_some_and(|e| e.sharers.contains(p as u32)),
                };
                if !present && bad.is_none() {
                    bad = Some(format!("{}: cached at P{p} but not in directory", l.addr));
                }
            });
            if let Some(msg) = bad {
                return Err(msg);
            }
        }
        Ok(())
    }

    /// Test-only sabotage for the `tpi-model` and `tpi-fuzz`
    /// seeded-violation tests: declare every access commuting
    /// ([`CoherenceEngine::commutes`]), so the heap replay lets each
    /// processor run ahead past directory state others depend on.
    #[doc(hidden)]
    pub fn debug_commute_always(&mut self) {
        self.commutes_always = true;
    }

    /// Test-only sabotage for the `tpi-model` and `tpi-fuzz`
    /// seeded-violation tests: claim
    /// [`CoherenceEngine::order_insensitive`], so the heap replay runs
    /// each processor's stream straight through, past directory state
    /// others depend on.
    #[doc(hidden)]
    pub fn debug_claim_order_insensitive(&mut self) {
        self.claims_order_insensitive = true;
    }

    /// Test-only sabotage for the `tpi-model` seeded-violation tests:
    /// clear processor `p`'s presence bit (and ownership) for the line of
    /// `addr` while its copy stays resident — the lost-sharer directory
    /// bug [`DirectoryEngine::verify_invariants`] exists to catch.
    #[doc(hidden)]
    pub fn debug_drop_sharer_bit(&mut self, p: usize, addr: WordAddr) {
        let la = self.cfg.cache.geometry.line_of(addr);
        if let Some(e) = self.directory.get_mut(la.0) {
            if e.owner == Some(p as u32) {
                e.owner = None;
            }
            e.sharers.remove(p as u32);
        }
    }
}

impl CoherenceEngine for DirectoryEngine {
    fn name(&self) -> &'static str {
        self.name
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
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_accessed(w);
            // Critical-section accesses are serialized by their lock; the
            // replay may legally order them differently than the trace
            // recorder did, so the shadow-version identity only applies to
            // epoch-ordered (non-critical) reads.
            assert!(
                !self.cfg.verify_freshness
                    || kind == ReadKind::Critical
                    || line.version(w) == version,
                "directory hit observed stale data at {addr}: cached {} vs required {version}",
                line.version(w)
            );
            self.stats.proc_mut(p).read_hits += 1;
            return AccessOutcome::hit();
        }
        let class = self.pending_class[p].take(la.0).unwrap_or_else(|| {
            if self.ever_cached[p].contains(la.0) {
                MissClass::Replacement
            } else {
                MissClass::Cold
            }
        });
        let line_words = geom.words_per_line();
        let owner = self.directory.get(la.0).and_then(|e| e.owner);
        let mut stall;
        if let Some(o) = owner {
            debug_assert_ne!(o as usize, p, "owner cannot miss on its own line");
            // Three-hop: home forwards to the owner, which supplies the
            // line, downgrades to Shared, and flushes memory clean.
            stall = 1 + self.net.three_hop_fetch(line_words);
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Coherence, 0);
            self.net.record(TrafficClass::Read, line_words);
            self.net.record(TrafficClass::Write, line_words);
            if let Some(ol) = self.caches[o as usize].touch_mut(la) {
                ol.state = LineState::Shared;
                ol.clean_all();
            }
            self.stats.proc_mut(o as usize).write_backs += 1;
            let e = self.directory.entry(la.0);
            e.owner = None;
            e.sharers.insert(o);
        } else {
            stall = 1 + self.net.line_fetch(line_words);
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, line_words);
        }
        self.directory.entry(la.0).sharers.insert(p as u32);
        stall += self.trap_penalty(p, la);
        self.fill(p, la, w, version, LineState::Shared);
        self.stats.proc_mut(p).record_miss(class, stall);
        AccessOutcome::miss(stall, class)
    }

    fn write(&mut self, proc: ProcId, addr: WordAddr, version: Version, _now: Cycle) -> Cycle {
        let p = proc.0 as usize;
        self.stats.proc_mut(p).writes += 1;
        let slot = self.mem_versions.get_mut(addr.0);
        *slot = (*slot).max(version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        let state = self.caches[p].peek(la).map(|l| l.state);
        match state {
            Some(LineState::Exclusive) => {
                let line = self.caches[p].touch_mut(la).expect("resident");
                line.set_word_dirty(w, true);
                line.set_word_accessed(w);
                let nv = line.version(w).max(version);
                line.set_version(w, nv);
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate the other sharers.
                self.stats.proc_mut(p).upgrades += 1;
                self.net.record(TrafficClass::Coherence, 0); // upgrade request
                self.invalidate_sharers(la, w, p as u32);
                let _ = self.trap_penalty(p, la);
                {
                    let e = self.directory.entry(la.0);
                    e.owner = Some(p as u32);
                    e.sharers.clear();
                }
                let line = self.caches[p].touch_mut(la).expect("resident");
                line.state = LineState::Exclusive;
                line.set_word_dirty(w, true);
                line.set_word_accessed(w);
                let nv = line.version(w).max(version);
                line.set_version(w, nv);
            }
            None => {
                // Write miss: read-exclusive fetch, non-blocking.
                self.stats.proc_mut(p).write_misses += 1;
                let line_words = geom.words_per_line();
                let owner = self.directory.get(la.0).and_then(|e| e.owner);
                if let Some(o) = owner {
                    // Ownership transfer with invalidation of the old owner.
                    self.net.record(TrafficClass::Read, 0);
                    self.net.record(TrafficClass::Coherence, 0);
                    self.net.record(TrafficClass::Read, line_words);
                    if let Some(victim) = self.caches[o as usize].remove(la) {
                        let fs = !victim.word_accessed(w);
                        let class = if fs {
                            MissClass::FalseSharing
                        } else {
                            MissClass::CoherenceTrue
                        };
                        self.pending_class[o as usize].set(la.0, class);
                        self.stats.proc_mut(o as usize).invals_received += 1;
                    }
                } else {
                    self.net.record(TrafficClass::Read, 0);
                    self.net.record(TrafficClass::Read, line_words);
                    self.invalidate_sharers(la, w, p as u32);
                }
                let _ = self.trap_penalty(p, la);
                {
                    let e = self.directory.entry(la.0);
                    e.owner = Some(p as u32);
                    e.sharers.clear();
                }
                self.fill(p, la, w, version, LineState::Exclusive);
                let line = self.caches[p].touch_mut(la).expect("just filled");
                line.set_word_dirty(w, true);
            }
        }
        1
    }

    fn order_insensitive(&self) -> bool {
        self.claims_order_insensitive
    }

    /// An access commutes when no other processor references its line
    /// this epoch, and none references another line resident in its set
    /// (an invalidation or a three-hop downgrade there would reorder the
    /// set's LRU list, and a miss displaces one of them). A miss or a
    /// write also needs that no other processor holds the line: a dirty
    /// owner would be downgraded, sharers invalidated, and a sharer's own
    /// eviction would race the directory update (and LimitLess's pointer
    /// count).
    fn commutes(&self, proc: ProcId, addr: WordAddr, write: bool, refs: &EpochRefs) -> bool {
        if self.commutes_always {
            return true;
        }
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let cache = &self.caches[proc.0 as usize];
        if !refs.only_by(proc, geom, la) {
            return false;
        }
        if write || cache.peek(la).is_none() {
            let others_hold = self.directory.get(la.0).is_some_and(|e| {
                e.owner.is_some_and(|o| o != proc.0) || e.sharers.iter().any(|q| q != proc.0)
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
        // Write-back + eager invalidation: nothing to drain at barriers.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);
    const P2: ProcId = ProcId(2);

    fn engine() -> DirectoryEngine {
        DirectoryEngine::full_map(EngineConfig::paper_default(1 << 20))
    }

    #[test]
    fn read_sharing_then_upgrade_invalidates() {
        let mut e = engine();
        let a = WordAddr(0);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        e.verify_invariants().unwrap();
        // P0 writes: P1's copy must drop.
        e.write(P0, a, 1, 10);
        e.verify_invariants().unwrap();
        assert_eq!(e.stats().proc(0).upgrades, 1);
        assert_eq!(e.stats().proc(1).invals_received, 1);
        // P1's next read misses with a true-sharing classification (it had
        // read the very word that was written).
        let m = e.read(P1, a, ReadKind::Plain, 1, 20);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
        e.verify_invariants().unwrap();
    }

    #[test]
    fn false_sharing_classified() {
        let mut e = engine();
        let a = WordAddr(0);
        let sibling = WordAddr(1); // same 4-word line
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0); // P1 touches word 0 only
        e.write(P0, sibling, 1, 10); // write to the untouched word
        let m = e.read(P1, a, ReadKind::Plain, 0, 20);
        assert_eq!(m.miss, Some(MissClass::FalseSharing));
    }

    #[test]
    fn dirty_remote_read_is_three_hop() {
        let mut e = engine();
        let a = WordAddr(8);
        e.write(P0, a, 1, 0); // P0 exclusive dirty
        e.verify_invariants().unwrap();
        let clean_miss = e.read(P2, WordAddr(64), ReadKind::Plain, 0, 0).stall;
        let dirty_miss = e.read(P1, a, ReadKind::Plain, 1, 0).stall;
        assert!(
            dirty_miss > clean_miss,
            "3-hop ({dirty_miss}) must exceed 2-hop ({clean_miss})"
        );
        // Owner was downgraded, memory flushed.
        assert_eq!(e.stats().proc(0).write_backs, 1);
        e.verify_invariants().unwrap();
        // Both now share.
        let h = e.read(P0, a, ReadKind::Plain, 1, 1);
        assert_eq!(h.miss, None);
    }

    #[test]
    fn write_miss_takes_ownership_from_owner() {
        let mut e = engine();
        let a = WordAddr(16);
        e.write(P0, a, 1, 0);
        e.write(P1, a, 2, 10); // ownership transfer
        e.verify_invariants().unwrap();
        assert_eq!(e.stats().proc(0).invals_received, 1);
        let m = e.read(P0, a, ReadKind::Plain, 2, 20);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
    }

    #[test]
    fn eviction_notifies_directory_and_writes_back() {
        let mut cfg = EngineConfig::paper_default(1 << 30);
        cfg.cache.size_bytes = 128; // 8 lines direct-mapped
        let mut e = DirectoryEngine::full_map(cfg);
        let a = WordAddr(0);
        e.write(P0, a, 1, 0); // dirty exclusive
        let conflicting = WordAddr(32); // line 8 -> set 0
        let _ = e.read(P0, conflicting, ReadKind::Plain, 0, 1);
        e.verify_invariants().unwrap();
        assert_eq!(e.stats().proc(0).write_backs, 1);
        // Re-read of `a` is a replacement miss, not coherence.
        let m = e.read(P0, a, ReadKind::Plain, 1, 2);
        assert_eq!(m.miss, Some(MissClass::Replacement));
    }

    #[test]
    fn read_hits_after_sharing() {
        let mut e = engine();
        let a = WordAddr(24);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        assert_eq!(e.read(P0, a, ReadKind::Plain, 0, 1).miss, None);
        assert_eq!(e.read(P1, a, ReadKind::Plain, 0, 1).miss, None);
    }

    #[test]
    fn limitless_traps_on_pointer_overflow() {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.limitless_pointers = 2;
        cfg.limitless_trap_cycles = 50;
        let mut e = DirectoryEngine::limitless(cfg);
        let a = WordAddr(0);
        let s1 = e.read(P0, a, ReadKind::Plain, 0, 0).stall;
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        let _ = e.read(P2, a, ReadKind::Plain, 0, 0); // 3rd sharer: overflow
        let s4 = e.read(ProcId(3), a, ReadKind::Plain, 0, 0).stall;
        assert!(s4 >= s1 + 50, "overflowed entry must trap: {s4} vs {s1}");
        assert_eq!(e.stats().proc(2).traps + e.stats().proc(3).traps, 2);
        e.verify_invariants().unwrap();
    }

    #[test]
    fn ignores_read_kind_marks() {
        let mut e = engine();
        let a = WordAddr(40);
        let _ = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 0, 0);
        let h = e.read(P0, a, ReadKind::TimeRead { distance: 0 }, 0, 1);
        assert_eq!(h.miss, None, "directory schemes ignore compiler marks");
    }

    #[test]
    fn sole_sharer_upgrade_sends_no_invalidations() {
        let mut e = engine();
        let a = WordAddr(48);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0);
        let coh_before = e.network().stats().words(TrafficClass::Coherence);
        e.write(P0, a, 1, 10);
        let coh_after = e.network().stats().words(TrafficClass::Coherence);
        // One upgrade request to the home, but no invalidation/ack pairs.
        assert!(
            coh_after - coh_before <= 1,
            "sole sharer: {}",
            coh_after - coh_before
        );
        for q in 1..16 {
            assert_eq!(e.stats().proc(q).invals_received, 0);
        }
        e.verify_invariants().unwrap();
    }

    #[test]
    fn repeated_upgrade_write_stays_exclusive() {
        let mut e = engine();
        let a = WordAddr(56);
        e.write(P0, a, 1, 0);
        e.write(P0, a, 2, 1);
        e.write(P0, a, 3, 2);
        assert_eq!(
            e.stats().proc(0).upgrades,
            0,
            "exclusive writes need no upgrade"
        );
        assert_eq!(e.stats().proc(0).write_misses, 1);
        e.verify_invariants().unwrap();
    }

    #[test]
    fn presence_bits_scale_past_one_word() {
        // 128 sharers spans two bitmap words; an upgrade must invalidate
        // every one of them and the directory must stay consistent.
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.procs = 128;
        let mut e = DirectoryEngine::full_map(cfg);
        let a = WordAddr(0);
        for q in 0..128 {
            let _ = e.read(ProcId(q), a, ReadKind::Plain, 0, 0);
        }
        e.verify_invariants().unwrap();
        e.write(ProcId(127), a, 1, 10);
        e.verify_invariants().unwrap();
        assert_eq!(e.stats().proc(127).upgrades, 1);
        let dropped: u64 = (0..127).map(|q| e.stats().proc(q).invals_received).sum();
        assert_eq!(dropped, 127, "all 127 other sharers invalidated");
    }
}
