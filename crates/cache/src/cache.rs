//! The cache array: set-associative storage with per-word valid bits,
//! per-word timetags, and per-line coherence state.
//!
//! One structure serves every scheme in the study:
//!
//! * the TPI scheme uses the per-word valid bits and timetags;
//! * the SC scheme uses the per-word valid bits only;
//! * the directory schemes use the per-line MSI state and dirty bits.
//!
//! The `versions` and `accessed` fields are *simulation shadow state*, not
//! modelled hardware: versions let the simulator decide whether a miss was
//! necessary (the word really changed) or an artifact of conservatism /
//! false sharing, and the accessed bits implement the Tullsen–Eggers
//! false-sharing classification the paper cites (\[34\]).

use crate::timetag::ResetEvent;
use std::fmt;
use tpi_mem::{LineAddr, LineGeometry, Version, WordAddr};

/// Geometry and capacity of one processor's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total data capacity in bytes (the paper's default: 64 KB).
    pub size_bytes: usize,
    /// Associativity (1 = direct-mapped, the paper's default).
    pub assoc: u32,
    /// Line geometry (the paper's default: 4 words = 16 bytes).
    pub geometry: LineGeometry,
}

impl CacheConfig {
    /// The paper's default node cache: 64 KB direct-mapped, 4-word lines.
    #[must_use]
    pub fn paper_default() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 1,
            geometry: LineGeometry::new(4),
        }
    }

    /// Total number of lines.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (capacity not a multiple
    /// of the line size, zero associativity, more than 64 words per line,
    /// or a non-power-of-two number of sets).
    #[must_use]
    pub fn num_lines(&self) -> usize {
        let lb = self.geometry.line_bytes();
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.geometry.words_per_line() <= 64,
            "at most 64 words per line (bitmask representation)"
        );
        assert_eq!(
            self.size_bytes % lb,
            0,
            "capacity must be a multiple of the line size"
        );
        let lines = self.size_bytes / lb;
        assert_eq!(
            lines % self.assoc as usize,
            0,
            "lines must divide evenly into sets"
        );
        lines
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        let sets = self.num_lines() / self.assoc as usize;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        sets
    }
}

/// Per-line coherence state (used by the directory protocols; TPI and SC
/// keep every present line in `Shared`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Readable copy; memory is up to date (for write-back protocols).
    Shared,
    /// Sole writable copy; memory may be stale.
    Exclusive,
}

/// Per-word shadow metadata: the hardware timetag and the simulation-only
/// value version, kept side by side in one allocation because the TPI read
/// path always inspects both for the same word. The lease is a TARDIS
/// timestamp, not a version, so it keeps 64 bits; the record takes 16
/// bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WordMeta {
    tag: u16,
    version: Version,
    lease: u64,
}

/// One resident cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Line address (full address stored in lieu of a tag).
    pub addr: LineAddr,
    /// Coherence state.
    pub state: LineState,
    /// Updates pushed into this copy since the local processor last
    /// accessed it: the per-line competitive counter of the hybrid
    /// update/invalidate protocol (zero under the other schemes).
    pub updates: u32,
    valid: u64,
    dirty: u64,
    accessed: u64,
    meta: Vec<WordMeta>,
}

impl Line {
    /// A new line with no valid words.
    #[must_use]
    pub fn new(addr: LineAddr, words_per_line: u32) -> Self {
        Line {
            addr,
            state: LineState::Shared,
            updates: 0,
            valid: 0,
            dirty: 0,
            accessed: 0,
            meta: vec![WordMeta::default(); words_per_line as usize],
        }
    }

    /// Turns the line into a fresh copy of `addr`, as [`Line::new`] would
    /// build it, keeping its per-word storage.
    fn reset(&mut self, addr: LineAddr) {
        self.addr = addr;
        self.state = LineState::Shared;
        self.updates = 0;
        self.valid = 0;
        self.dirty = 0;
        self.accessed = 0;
        self.meta.fill(WordMeta::default());
    }

    fn bit(word: u32) -> u64 {
        1u64 << word
    }

    /// Whether `word` holds valid data.
    #[must_use]
    pub fn word_valid(&self, word: u32) -> bool {
        self.valid & Self::bit(word) != 0
    }

    /// Marks `word` valid or invalid.
    pub fn set_word_valid(&mut self, word: u32, valid: bool) {
        if valid {
            self.valid |= Self::bit(word);
        } else {
            self.valid &= !Self::bit(word);
        }
    }

    /// Whether any word is valid.
    #[must_use]
    pub fn any_valid(&self) -> bool {
        self.valid != 0
    }

    /// Whether `word` is dirty (write-back protocols).
    #[must_use]
    pub fn word_dirty(&self, word: u32) -> bool {
        self.dirty & Self::bit(word) != 0
    }

    /// Marks `word` dirty or clean.
    pub fn set_word_dirty(&mut self, word: u32, dirty: bool) {
        if dirty {
            self.dirty |= Self::bit(word);
        } else {
            self.dirty &= !Self::bit(word);
        }
    }

    /// Whether any word is dirty.
    #[must_use]
    pub fn any_dirty(&self) -> bool {
        self.dirty != 0
    }

    /// Clears all dirty bits.
    pub fn clean_all(&mut self) {
        self.dirty = 0;
    }

    /// Whether the local processor touched `word` since the line was filled
    /// (Tullsen–Eggers bookkeeping).
    #[must_use]
    pub fn word_accessed(&self, word: u32) -> bool {
        self.accessed & Self::bit(word) != 0
    }

    /// Records a local access to `word`.
    pub fn set_word_accessed(&mut self, word: u32) {
        self.accessed |= Self::bit(word);
    }

    /// Timetag of `word`.
    #[must_use]
    pub fn timetag(&self, word: u32) -> u16 {
        self.meta[word as usize].tag
    }

    /// Stamps `word` with `tag`.
    pub fn set_timetag(&mut self, word: u32, tag: u16) {
        self.meta[word as usize].tag = tag;
    }

    /// Shadow version of `word` (what value generation it holds).
    #[must_use]
    pub fn version(&self, word: u32) -> Version {
        self.meta[word as usize].version
    }

    /// Sets the shadow version of `word`.
    pub fn set_version(&mut self, word: u32, version: Version) {
        self.meta[word as usize].version = version;
    }

    /// Read-lease expiry timestamp of `word` (Tardis-style timestamp
    /// coherence; unused by the other schemes).
    #[must_use]
    pub fn lease(&self, word: u32) -> u64 {
        self.meta[word as usize].lease
    }

    /// Sets the read-lease expiry timestamp of `word`.
    pub fn set_lease(&mut self, word: u32, lease: u64) {
        self.meta[word as usize].lease = lease;
    }

    /// Invalidates words whose timetag lies in `[lo, hi]`; returns how many
    /// valid words were dropped. Only valid words are visited (bit
    /// iteration over the valid mask), so lines that are mostly invalid
    /// cost next to nothing.
    pub fn invalidate_tag_range(&mut self, lo: u16, hi: u16) -> u32 {
        let mut dropped = 0;
        let mut remaining = self.valid;
        while remaining != 0 {
            let w = remaining.trailing_zeros();
            remaining &= remaining - 1;
            let t = self.meta[w as usize].tag;
            if t >= lo && t <= hi {
                self.valid &= !Self::bit(w);
                dropped += 1;
            }
        }
        dropped
    }

    /// Number of valid words.
    #[must_use]
    pub fn valid_count(&self) -> u32 {
        self.valid.count_ones()
    }
}

/// The head of a line that left the cache: its address, coherence state
/// and per-word masks. Per-word metadata (timetags, versions, leases) is
/// not kept, so removing or displacing a line copies no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address.
    pub addr: LineAddr,
    /// Coherence state the line was in.
    pub state: LineState,
    valid: u64,
    dirty: u64,
    accessed: u64,
}

impl Evicted {
    fn of(line: &Line) -> Self {
        Evicted {
            addr: line.addr,
            state: line.state,
            valid: line.valid,
            dirty: line.dirty,
            accessed: line.accessed,
        }
    }

    /// Whether `word` held valid data.
    #[must_use]
    pub fn word_valid(&self, word: u32) -> bool {
        self.valid & Line::bit(word) != 0
    }

    /// Whether `word` was dirty.
    #[must_use]
    pub fn word_dirty(&self, word: u32) -> bool {
        self.dirty & Line::bit(word) != 0
    }

    /// Whether any word was dirty.
    #[must_use]
    pub fn any_dirty(&self) -> bool {
        self.dirty != 0
    }

    /// Whether the local processor touched `word` since the line was
    /// filled (Tullsen–Eggers bookkeeping).
    #[must_use]
    pub fn word_accessed(&self, word: u32) -> bool {
        self.accessed & Line::bit(word) != 0
    }
}

/// Way-index flag of an entry that holds no resident line: either a spare
/// arena slot the set owns ([`SPARE`] plus the slot) or nothing at all
/// ([`NO_LINE`]).
const SPARE: u32 = 1 << 31;

/// Way-index entry of a way that has never held a line.
const NO_LINE: u32 = u32::MAX;

/// Whether a way-index entry names a resident line.
#[inline]
fn resident(entry: u32) -> bool {
    entry & SPARE == 0
}

/// A set-associative cache with true-LRU replacement.
///
/// Lines live in one arena that grows as lines are first installed; a
/// flat way index of `num_sets × assoc` entries gives each set's resident
/// lines as arena indices, most recently used first. A set keeps the arena
/// slots it has used: a line that leaves the cache leaves its slot (and
/// its per-word storage) behind as a spare of its set, listed after the
/// resident lines, and the set's next install reuses it. A set therefore
/// owns at most `assoc` slots, and a direct-mapped cache that has seen a
/// run of accesses once fills and evicts without allocating when it sees
/// them again.
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line storage; the way index names lines by position.
    lines: Vec<Line>,
    /// `ways[s * assoc..][..assoc]`: set `s`'s resident lines (arena
    /// indices, MRU first), then its spare slots (flagged [`SPARE`]), then
    /// [`NO_LINE`] padding.
    ways: Vec<u32>,
    assoc: usize,
    /// `num_sets - 1`; set selection is a mask because the set count is a
    /// power of two (asserted at construction).
    set_mask: u64,
}

impl Cache {
    /// An empty cache of the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`CacheConfig::num_lines`]).
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        let assoc = cfg.assoc as usize;
        Cache {
            cfg,
            lines: Vec::new(),
            ways: vec![NO_LINE; sets * assoc],
            assoc,
            set_mask: sets as u64 - 1,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// First way-index entry of the set holding `addr`.
    fn set_base(&self, addr: LineAddr) -> usize {
        (addr.0 & self.set_mask) as usize * self.assoc
    }

    /// The way-index entries of the set starting at `base`.
    fn set(&self, base: usize) -> &[u32] {
        &self.ways[base..base + self.assoc]
    }

    /// Position of `addr` among its set's ways, if resident.
    #[inline]
    fn find(&self, base: usize, addr: LineAddr) -> Option<usize> {
        self.set(base)
            .iter()
            .take_while(|&&i| resident(i))
            .position(|&i| self.lines[i as usize].addr == addr)
    }

    /// Line address containing `addr`.
    #[must_use]
    pub fn line_of(&self, addr: WordAddr) -> LineAddr {
        self.cfg.geometry.line_of(addr)
    }

    /// The resident line at `addr`, if present (does not touch LRU).
    #[must_use]
    pub fn peek(&self, addr: LineAddr) -> Option<&Line> {
        let base = self.set_base(addr);
        let pos = self.find(base, addr)?;
        Some(&self.lines[self.ways[base + pos] as usize])
    }

    /// The lines resident in `addr`'s set, most recently used first
    /// (`addr` itself among them if it is resident).
    pub fn set_residents(&self, addr: LineAddr) -> impl Iterator<Item = LineAddr> + '_ {
        self.set(self.set_base(addr))
            .iter()
            .take_while(|&&i| resident(i))
            .map(|&i| self.lines[i as usize].addr)
    }

    /// Mutable access to the resident line at `addr`, without touching LRU
    /// (for protocol actions that are not local accesses).
    pub fn peek_mut(&mut self, addr: LineAddr) -> Option<&mut Line> {
        let base = self.set_base(addr);
        let pos = self.find(base, addr)?;
        Some(&mut self.lines[self.ways[base + pos] as usize])
    }

    /// Mutable access to the resident line at `addr`, moving it to MRU.
    ///
    /// The MRU rotation is skipped when the line is already at the front —
    /// for a direct-mapped cache (the paper's default) every hit takes that
    /// branch, making this a plain lookup on the simulator's hottest path.
    #[inline]
    pub fn touch_mut(&mut self, addr: LineAddr) -> Option<&mut Line> {
        let base = self.set_base(addr);
        let pos = self.find(base, addr)?;
        if pos > 0 {
            self.ways[base..=base + pos].rotate_right(1);
        }
        Some(&mut self.lines[self.ways[base] as usize])
    }

    /// Makes `addr` resident as the MRU line of its set, with no valid,
    /// dirty or accessed word, every word's metadata and the update count
    /// zeroed, and state [`LineState::Shared`]. Returns the line and the head of the line it
    /// displaced: the set's LRU line if the set was full, or the old copy
    /// if `addr` was already resident. The new line reuses the displaced
    /// line's storage, or a spare slot of the set.
    pub fn install(&mut self, addr: LineAddr) -> (&mut Line, Option<Evicted>) {
        let base = self.set_base(addr);
        let (pos, slot, evicted) = if let Some(pos) = self.find(base, addr) {
            let slot = self.ways[base + pos];
            (pos, slot, Some(Evicted::of(&self.lines[slot as usize])))
        } else {
            match self.set(base).iter().position(|&i| !resident(i)) {
                Some(pos) => {
                    let slot = match self.ways[base + pos] {
                        NO_LINE => {
                            let wpl = self.cfg.geometry.words_per_line();
                            self.lines.push(Line::new(addr, wpl));
                            u32::try_from(self.lines.len() - 1)
                                .ok()
                                .filter(|&i| resident(i))
                                .expect("fewer than 2^31 cache lines")
                        }
                        spare => spare & !SPARE,
                    };
                    (pos, slot, None)
                }
                None => {
                    let pos = self.assoc - 1;
                    let slot = self.ways[base + pos];
                    (pos, slot, Some(Evicted::of(&self.lines[slot as usize])))
                }
            }
        };
        self.ways[base + pos] = slot;
        self.ways[base..=base + pos].rotate_right(1);
        let line = &mut self.lines[slot as usize];
        line.reset(addr);
        (line, evicted)
    }

    /// Removes the line at `addr`; returns its head. Its slot stays with
    /// the set as a spare.
    pub fn remove(&mut self, addr: LineAddr) -> Option<Evicted> {
        let base = self.set_base(addr);
        let pos = self.find(base, addr)?;
        let slot = self.ways[base + pos];
        let residents = self.set(base).iter().take_while(|&&i| resident(i)).count();
        self.ways[base + pos..base + residents].rotate_left(1);
        self.ways[base + residents - 1] = slot | SPARE;
        Some(Evicted::of(&self.lines[slot as usize]))
    }

    /// Applies a timetag reset event; returns the number of invalidated
    /// words. Lines left with no valid word are dropped.
    pub fn apply_reset(&mut self, ev: ResetEvent) -> u64 {
        let mut dropped = 0u64;
        self.retain_lines(|line| {
            match ev {
                ResetEvent::InvalidateTagRange { lo, hi } => {
                    dropped += u64::from(line.invalidate_tag_range(lo, hi));
                }
                ResetEvent::InvalidateAll => {
                    dropped += u64::from(line.valid_count());
                    line.valid = 0;
                }
            }
            line.any_valid()
        });
        dropped
    }

    /// Visits every resident line, set by set, most recently used first.
    pub fn for_each_line(&self, mut f: impl FnMut(&Line)) {
        for &slot in &self.ways {
            if resident(slot) {
                f(&self.lines[slot as usize]);
            }
        }
    }

    /// Visits every resident line mutably, in [`Cache::for_each_line`]
    /// order; lines for which `f` returns `false` are removed (their slots
    /// become spares of their sets).
    pub fn retain_lines(&mut self, mut f: impl FnMut(&mut Line) -> bool) {
        for set in self.ways.chunks_exact_mut(self.assoc) {
            // Stable for the kept lines: each moves to the front in turn,
            // swapping with a removed one.
            let mut kept = 0;
            for k in 0..set.len() {
                let slot = set[k];
                if !resident(slot) {
                    break;
                }
                if f(&mut self.lines[slot as usize]) {
                    set.swap(kept, k);
                    kept += 1;
                } else {
                    set[k] = slot | SPARE;
                }
            }
        }
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|&&i| resident(i)).count()
    }

    /// Drops every resident line (and the arena's storage).
    pub fn clear(&mut self) {
        self.ways.fill(NO_LINE);
        self.lines.clear();
    }
}

impl fmt::Debug for Cache {
    /// Prints the configuration and every non-empty set's resident lines,
    /// most recently used first: the cache's observable state, independent
    /// of which arena slot holds which line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Sets<'a>(&'a Cache);
        impl fmt::Debug for Sets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let c = self.0;
                let mut map = f.debug_map();
                for (s, set) in c.ways.chunks_exact(c.assoc).enumerate() {
                    let lines: Vec<&Line> = set
                        .iter()
                        .take_while(|&&i| resident(i))
                        .map(|&i| &c.lines[i as usize])
                        .collect();
                    if !lines.is_empty() {
                        map.entry(&s, &lines);
                    }
                }
                map.finish()
            }
        }
        f.debug_struct("Cache")
            .field("cfg", &self.cfg)
            .field("sets", &Sets(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_meta_is_sixteen_bytes() {
        // Every resident line carries one record per word; a widened field
        // grows every cache of every engine.
        assert_eq!(std::mem::size_of::<WordMeta>(), 16);
    }

    fn small_cfg(assoc: u32) -> CacheConfig {
        // 8 lines of 4 words.
        CacheConfig {
            size_bytes: 128,
            assoc,
            geometry: LineGeometry::new(4),
        }
    }

    #[test]
    fn config_arithmetic() {
        let c = CacheConfig::paper_default();
        assert_eq!(c.num_lines(), 4096);
        assert_eq!(c.num_sets(), 4096);
        assert_eq!(small_cfg(2).num_sets(), 4);
    }

    #[test]
    #[should_panic(expected = "multiple of the line size")]
    fn bad_capacity_rejected() {
        let c = CacheConfig {
            size_bytes: 100,
            assoc: 1,
            geometry: LineGeometry::new(4),
        };
        let _ = c.num_lines();
    }

    #[test]
    fn word_flags_roundtrip() {
        let mut l = Line::new(LineAddr(7), 4);
        assert!(!l.word_valid(2));
        l.set_word_valid(2, true);
        l.set_word_dirty(2, true);
        l.set_word_accessed(2);
        l.set_timetag(2, 9);
        l.set_version(2, 42);
        l.set_lease(2, 17);
        assert!(l.word_valid(2) && l.word_dirty(2) && l.word_accessed(2));
        assert_eq!(l.timetag(2), 9);
        assert_eq!(l.version(2), 42);
        assert_eq!(l.lease(2), 17);
        assert_eq!(l.lease(3), 0);
        assert!(l.any_valid() && l.any_dirty());
        for w in 0..4 {
            l.set_word_valid(w, true);
        }
        l.set_word_dirty(2, false);
        assert!(!l.any_dirty());
        assert_eq!(l.valid_count(), 4);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = Cache::new(small_cfg(1)); // 8 sets
        assert!(c.install(LineAddr(3)).1.is_none());
        // 11 % 8 == 3: conflicts with line 3.
        let (line, victim) = c.install(LineAddr(11));
        assert_eq!(line.addr, LineAddr(11));
        assert_eq!(victim.expect("conflict must evict").addr, LineAddr(3));
        assert!(c.peek(LineAddr(3)).is_none());
        assert!(c.peek(LineAddr(11)).is_some());
        assert_eq!(c.lines.len(), 1, "the new line reused the victim's slot");
    }

    #[test]
    fn set_residents_lists_the_set_mru_first() {
        let mut c = Cache::new(small_cfg(2));
        let sets = c.config().num_sets() as u64;
        let (a, b) = (LineAddr(3), LineAddr(3 + sets));
        assert_eq!(c.set_residents(a).count(), 0);
        let _ = c.install(a);
        let _ = c.install(b);
        assert_eq!(c.set_residents(a).collect::<Vec<_>>(), [b, a]);
        let _ = c.remove(b);
        assert_eq!(c.set_residents(b).collect::<Vec<_>>(), [a]);
        assert_eq!(c.set_residents(LineAddr(4)).count(), 0);
    }

    #[test]
    fn lru_order_in_associative_set() {
        let mut c = Cache::new(small_cfg(2)); // 4 sets, 2-way
        c.install(LineAddr(0));
        c.install(LineAddr(4)); // same set 0
                                // Touch 0 to make it MRU, then install another conflicting line.
        assert!(c.touch_mut(LineAddr(0)).is_some());
        let victim = c.install(LineAddr(8)).1.expect("evicts LRU");
        assert_eq!(victim.addr, LineAddr(4), "LRU is the untouched line");
        let mut order = Vec::new();
        c.for_each_line(|l| order.push(l.addr.0));
        assert_eq!(order, vec![8, 0], "set order, MRU first");
    }

    #[test]
    fn reinstall_same_address_resets_the_line() {
        let mut c = Cache::new(small_cfg(2));
        let (l, _) = c.install(LineAddr(5));
        l.set_word_valid(0, true);
        l.set_word_dirty(0, true);
        l.set_version(0, 9);
        l.state = LineState::Exclusive;
        l.updates = 3;
        let (fresh, replaced) = c.install(LineAddr(5));
        assert_eq!(*fresh, Line::new(LineAddr(5), 4), "as good as new");
        let replaced = replaced.expect("old copy returned");
        assert!(replaced.word_valid(0) && replaced.word_dirty(0) && replaced.any_dirty());
        assert_eq!(replaced.state, LineState::Exclusive);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn reset_invalidates_only_tag_range() {
        let mut c = Cache::new(small_cfg(1));
        let (l, _) = c.install(LineAddr(1));
        for w in 0..4 {
            l.set_word_valid(w, true);
        }
        l.set_timetag(0, 1);
        l.set_timetag(1, 5);
        l.set_timetag(2, 6);
        l.set_timetag(3, 2);
        let dropped = c.apply_reset(ResetEvent::InvalidateTagRange { lo: 4, hi: 7 });
        assert_eq!(dropped, 2);
        let line = c.peek(LineAddr(1)).unwrap();
        assert!(line.word_valid(0) && line.word_valid(3));
        assert!(!line.word_valid(1) && !line.word_valid(2));
        // Full flush drops the rest and removes the line entirely.
        let dropped = c.apply_reset(ResetEvent::InvalidateAll);
        assert_eq!(dropped, 2);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = Cache::new(small_cfg(1)); // 8 sets
        c.install(LineAddr(2)).0.set_word_accessed(1);
        let head = c.remove(LineAddr(2)).expect("resident");
        assert!(head.word_accessed(1) && !head.word_accessed(0));
        assert!(c.remove(LineAddr(2)).is_none());
        c.install(LineAddr(10)); // set 2 again: reuses its spare slot
        assert_eq!(c.lines.len(), 1, "the removed line's slot was reused");
        c.install(LineAddr(3)); // set 3 owns no slot yet
        assert_eq!(c.lines.len(), 2);
        assert_eq!(c.resident_lines(), 2);
        c.clear();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn debug_prints_resident_lines_not_arena_slots() {
        // Two histories that leave the same lines resident print alike.
        let mut a = Cache::new(small_cfg(2));
        a.install(LineAddr(1));
        a.install(LineAddr(2));
        let mut b = Cache::new(small_cfg(2));
        b.install(LineAddr(7));
        b.install(LineAddr(2));
        b.install(LineAddr(1));
        b.remove(LineAddr(7));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{a:?}").contains("l0x7"));
    }
}
