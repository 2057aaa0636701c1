//! The Tardis timestamp-lease engine.
//!
//! Tardis (Yu & Devadas) orders memory operations in *logical* time
//! instead of tracking sharers: memory keeps a write timestamp `wts` and a
//! read-lease timestamp `rts` per word, and every processor carries a
//! logical clock `pts`. A read borrows the word until `rts`; a write picks
//! a timestamp past every outstanding lease (`max(pts, rts+1, wts+1)`), so
//! it never has to invalidate anybody — there is **no coherence traffic at
//! all**, the scheme's headline property against the directory protocols.
//!
//! Under this study's weak-consistency model, epoch boundaries join all
//! processor clocks to their maximum. That is what retires stale copies: a
//! write's timestamp exceeds every lease granted before it, so after the
//! barrier every processor's `pts` sits above those leases and the expired
//! copies fail the hit check. Within an epoch, DOALL race freedom (plus
//! uncached critical accesses) guarantees no processor needs another's
//! same-epoch write — the same foundation SC rests on.
//!
//! The cost is the renewal: a lease that expires while the word is
//! *unchanged* forces a refetch that a directory scheme would not pay.
//! Those misses are classified [`MissClass::LeaseRenewal`] (a new,
//! unnecessary class). Compiler marks are ignored entirely.
//!
//! Caches are write-through / write-allocate with an infinite write
//! buffer, like SC and TPI.

use crate::stats::{EngineStats, MissClass};
use crate::write_path::WritePath;
use crate::{AccessOutcome, CoherenceEngine, EngineConfig, EpochRefs};
use tpi_cache::{Cache, Line};
use tpi_mem::{Cycle, DenseBitSet, DenseTable, LineAddr, ProcId, ReadKind, WordAddr};
use tpi_net::{Network, TrafficClass};

/// The Tardis timestamp-lease coherence engine.
#[derive(Debug, Clone)]
pub struct TardisEngine {
    cfg: EngineConfig,
    caches: Vec<Cache>,
    wpath: WritePath,
    net: Network,
    stats: EngineStats,
    mem_versions: DenseTable<u64>,
    ever_cached: Vec<DenseBitSet>,
    /// Per-processor logical clock.
    pts: Vec<u64>,
    /// Per-word write timestamp at the home.
    mem_wts: DenseTable<u64>,
    /// Per-word lease expiry at the home (largest lease handed out).
    mem_rts: DenseTable<u64>,
    lease_grants: u64,
    lease_renewals: u64,
}

impl TardisEngine {
    /// Builds a Tardis engine from `cfg`.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let caches = (0..cfg.procs).map(|_| Cache::new(cfg.cache)).collect();
        let wpath = WritePath::new(cfg.procs, cfg.wbuffer, cfg.net.word_cycles);
        let net = Network::new(cfg.net);
        let stats = EngineStats::new(cfg.procs);
        let ever_cached = vec![DenseBitSet::default(); cfg.procs as usize];
        let pts = vec![0; cfg.procs as usize];
        TardisEngine {
            cfg,
            caches,
            wpath,
            net,
            stats,
            mem_versions: DenseTable::default(),
            ever_cached,
            pts,
            mem_wts: DenseTable::default(),
            mem_rts: DenseTable::default(),
            lease_grants: 0,
            lease_renewals: 0,
        }
    }

    fn bump_mem_version(&mut self, addr: WordAddr, version: u64) {
        let e = self.mem_versions.get_mut(addr.0);
        *e = (*e).max(version);
    }

    fn wts(&self, addr: WordAddr) -> u64 {
        self.mem_wts.get(addr.0)
    }

    fn rts(&self, addr: WordAddr) -> u64 {
        self.mem_rts.get(addr.0)
    }

    /// Picks a write timestamp past every outstanding lease on `addr`,
    /// advances the writer's clock to it, and records it at the home.
    fn write_timestamp(&mut self, p: usize, addr: WordAddr) -> u64 {
        let ts = self.pts[p].max(self.rts(addr) + 1).max(self.wts(addr) + 1);
        self.pts[p] = ts;
        self.mem_wts.set(addr.0, ts);
        ts
    }

    /// Refills `line_addr` from memory, granting every word a fresh lease.
    /// Word versions never move backwards (a word still in the local write
    /// buffer keeps its newer version), and leases only extend.
    fn fill(&mut self, p: usize, line_addr: LineAddr, req_word: u32, req_version: u64) {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        let base = geom.first_word(line_addr).0;
        // Reading the requested word observes its write timestamp.
        let req_addr = WordAddr(base + u64::from(req_word));
        self.pts[p] = self.pts[p].max(self.wts(req_addr));
        let lease_floor = self.pts[p] + self.cfg.tardis_lease;
        self.lease_grants += u64::from(wpl);
        let cache = &mut self.caches[p];
        let line = match cache.touch_mut(line_addr) {
            Some(line) => line,
            None => cache.install(line_addr).0, // write-through: no victim writeback
        };
        for w in 0..wpl {
            let a = base + u64::from(w);
            let v = if w == req_word {
                req_version
            } else {
                self.mem_versions.get(a)
            };
            let rts = self.mem_rts.get_mut(a);
            let lease_end = (*rts).max(lease_floor);
            *rts = lease_end;
            if !line.word_valid(w) || line.version(w) <= v {
                line.set_word_valid(w, true);
                line.set_version(w, v);
            }
            line.set_lease(w, line.lease(w).max(lease_end));
        }
        line.set_word_accessed(req_word);
        self.ever_cached[p].insert(line_addr.0);
    }

    /// Checks that every *stale* cached copy is already expired
    /// (`tpi-model` invariant `tardis-stale-copy-lease`): if a cached
    /// word's version is behind memory, some write has happened, and that
    /// write's timestamp was chosen past every outstanding lease — so the
    /// stale copy's lease must sit strictly below the home `wts`. A stale
    /// copy leased at or beyond `wts` could be consumed after the write
    /// in logical time.
    pub(crate) fn check_stale_copy_leases(&self) -> Result<(), String> {
        self.for_each_cached_word(|p, a, line, w| {
            let cached = line.version(w);
            let mem = self.mem_versions.get(a.0);
            if cached < mem && line.lease(w) >= self.wts(a) {
                return Err(format!(
                    "proc {p} holds stale word {} (version {cached} < memory {mem}) \
                     with live lease {} >= write timestamp {}",
                    a.0,
                    line.lease(w),
                    self.wts(a)
                ));
            }
            Ok(())
        })
    }

    /// Checks that no cache holds a lease the home never granted
    /// (`tpi-model` invariant `tardis-lease-grant`): every cached word's
    /// lease is bounded by `max(rts, wts)` at the home, since `rts`
    /// records the largest read lease handed out and a writer's own copy
    /// is leased exactly at its write timestamp.
    pub(crate) fn check_lease_grants(&self) -> Result<(), String> {
        self.for_each_cached_word(|p, a, line, w| {
            let bound = self.rts(a).max(self.wts(a));
            if line.lease(w) > bound {
                return Err(format!(
                    "proc {p} holds word {} leased to {} but the home only \
                     granted up to {bound} (rts {}, wts {})",
                    a.0,
                    line.lease(w),
                    self.rts(a),
                    self.wts(a)
                ));
            }
            Ok(())
        })
    }

    /// Visits every valid cached word, short-circuiting on the first
    /// error.
    fn for_each_cached_word(
        &self,
        mut f: impl FnMut(usize, WordAddr, &Line, u32) -> Result<(), String>,
    ) -> Result<(), String> {
        let geom = self.cfg.cache.geometry;
        let wpl = geom.words_per_line();
        for (p, cache) in self.caches.iter().enumerate() {
            let mut res = Ok(());
            cache.for_each_line(|line| {
                for w in 0..wpl {
                    if res.is_ok() && line.word_valid(w) {
                        let a = WordAddr(geom.first_word(line.addr).0 + u64::from(w));
                        res = f(p, a, line, w);
                    }
                }
            });
            res?;
        }
        Ok(())
    }

    /// Test-only sabotage for the `tpi-model` seeded-violation tests:
    /// rewind the home write timestamp of `addr` to zero, as if a write
    /// had been ordered before leases it actually succeeded — the
    /// timestamp-ordering bug Tardis's correctness proof rules out.
    #[doc(hidden)]
    pub fn debug_rewind_wts(&mut self, addr: WordAddr) {
        self.mem_wts.set(addr.0, 0);
    }
}

impl CoherenceEngine for TardisEngine {
    fn name(&self) -> &'static str {
        "TARDIS"
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
            // Critical data stays uncached (lock order, not epoch order,
            // governs it); the read still observes the home's clock.
            self.pts[p] = self.pts[p].max(self.wts(addr));
            let stall = 1 + self.net.word_fetch();
            self.net.record(TrafficClass::Read, 0);
            self.net.record(TrafficClass::Read, 1);
            self.stats
                .proc_mut(p)
                .record_miss(MissClass::Uncached, stall);
            return AccessOutcome::miss(stall, MissClass::Uncached);
        }
        // Compiler marks are ignored: the lease check subsumes them.
        let mut class: Option<MissClass> = None;
        if let Some(line) = self.caches[p].touch_mut(la) {
            if line.word_valid(w) {
                if line.lease(w) >= self.pts[p] {
                    line.set_word_accessed(w);
                    assert!(
                        !self.cfg.verify_freshness || line.version(w) == version,
                        "TARDIS leased hit observed a stale version at {addr}: cached {} vs required {version}",
                        line.version(w)
                    );
                    self.stats.proc_mut(p).read_hits += 1;
                    return AccessOutcome::hit();
                }
                // Lease expired: unnecessary if the word never changed.
                class = Some(if line.version(w) == version {
                    MissClass::LeaseRenewal
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
        if class == MissClass::LeaseRenewal {
            self.lease_renewals += 1;
        }
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
        let ts = self.write_timestamp(p, addr);
        self.bump_mem_version(addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        if self.caches[p].peek(la).is_some() {
            let line = self.caches[p].touch_mut(la).expect("resident");
            line.set_word_valid(w, true);
            line.set_version(w, version);
            line.set_word_accessed(w);
            // The writer's own copy is leased at its write timestamp: its
            // clock sits exactly at `ts`, so the copy is self-usable until
            // something else advances the clock past it.
            line.set_lease(w, line.lease(w).max(ts));
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
        let _ts = self.write_timestamp(p, addr);
        self.bump_mem_version(addr, version);
        let geom = self.cfg.cache.geometry;
        let la = geom.line_of(addr);
        let w = geom.word_in_line(addr);
        // Critical data stays uncached: drop the word if resident.
        if let Some(line) = self.caches[p].touch_mut(la) {
            line.set_word_valid(w, false);
        }
        self.wpath.write(p, addr, now, &mut self.net);
        1
    }

    /// An access commutes when no other processor references its line
    /// this epoch. Tardis sends no invalidations and evicts silently, so
    /// an access reaches only its own processor's cache, clock and write
    /// path, and the timestamps and versions of its own line.
    fn commutes(&self, proc: ProcId, addr: WordAddr, _write: bool, refs: &EpochRefs) -> bool {
        let geom = self.cfg.cache.geometry;
        refs.only_by(proc, geom, geom.line_of(addr))
    }

    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        let stalls = self.wpath.boundary(per_proc_now);
        // The barrier joins every logical clock to the global maximum:
        // leases granted before any pre-barrier write now lie in every
        // processor's past, so the stale copies they covered are dead.
        let m = self.pts.iter().copied().max().unwrap_or(0);
        for pts in &mut self.pts {
            *pts = m;
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
            ("tardis_lease_grants", self.lease_grants),
            ("tardis_lease_renewals", self.lease_renewals),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    fn engine() -> TardisEngine {
        let mut cfg = EngineConfig::paper_default(1 << 20);
        cfg.verify_freshness = true;
        TardisEngine::new(cfg)
    }

    fn boundary(e: &mut TardisEngine) {
        let _ = e.epoch_boundary(&[0; 16]);
    }

    #[test]
    fn leased_reads_hit_without_marks() {
        let mut e = engine();
        let a = WordAddr(0);
        let m = e.read(P0, a, ReadKind::Plain, 0, 0);
        assert_eq!(m.miss, Some(MissClass::Cold));
        // Marked or not, the lease serves repeats — Tardis ignores marks.
        assert_eq!(e.read(P0, a, ReadKind::Plain, 0, 1).miss, None);
        assert_eq!(e.read(P0, a, ReadKind::Bypass, 0, 2).miss, None);
        assert_eq!(
            e.read(P0, a, ReadKind::TimeRead { distance: 3 }, 0, 3).miss,
            None
        );
    }

    #[test]
    fn stale_copy_dies_at_the_boundary() {
        let mut e = engine();
        let a = WordAddr(32);
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        e.write(P0, a, 1, 1);
        boundary(&mut e);
        // P1's lease predates the write timestamp; the join killed it.
        let m = e.read(P1, a, ReadKind::Plain, 1, 2);
        assert_eq!(m.miss, Some(MissClass::CoherenceTrue));
    }

    #[test]
    fn expired_lease_on_unchanged_word_is_a_renewal() {
        let mut e = engine();
        let a = WordAddr(64);
        let hot = WordAddr(1 << 16); // different line, different words
        let _ = e.read(P1, a, ReadKind::Plain, 0, 0);
        // P0 hammers an unrelated word, driving its clock past P1's lease.
        for v in 1..=20 {
            e.write(P0, hot, v, v);
            boundary(&mut e);
        }
        // The word P1 cached never changed, but the joined clock outran
        // the lease: an unnecessary renewal miss, Tardis's signature cost.
        let m = e.read(P1, a, ReadKind::Plain, 0, 100);
        assert_eq!(m.miss, Some(MissClass::LeaseRenewal));
        assert!(e.op_counts().contains(&("tardis_lease_renewals", 1)));
    }

    #[test]
    fn no_coherence_traffic_ever() {
        let mut e = engine();
        for v in 1..=10 {
            let _ = e.read(P1, WordAddr(v), ReadKind::Plain, 0, 0);
            e.write(P0, WordAddr(v), v, 1);
            boundary(&mut e);
        }
        assert_eq!(e.network().stats().words(TrafficClass::Coherence), 0);
    }

    #[test]
    fn writer_reuses_its_own_copy() {
        let mut e = engine();
        let a = WordAddr(128);
        let _ = e.read(P0, a, ReadKind::Plain, 0, 0);
        e.write(P0, a, 1, 1);
        assert_eq!(e.read(P0, a, ReadKind::Plain, 1, 2).miss, None);
    }

    #[test]
    fn critical_accesses_stay_uncached() {
        let mut e = engine();
        let a = WordAddr(256);
        e.write_critical(P0, a, 1, 0);
        let m = e.read(P0, a, ReadKind::Critical, 1, 1);
        assert_eq!(m.miss, Some(MissClass::Uncached));
        let m2 = e.read(P0, a, ReadKind::Critical, 1, 2);
        assert_eq!(m2.miss, Some(MissClass::Uncached));
    }

    #[test]
    fn boundary_drains_write_buffers() {
        let mut e = engine();
        e.write(P0, WordAddr(0), 1, 0);
        let stalls = e.epoch_boundary(&[1000; 16]);
        assert_eq!(stalls[0], 0, "port long since free");
    }
}
