//! Which processors reference each line during one epoch: the table an
//! engine's run-ahead rule ([`crate::CoherenceEngine::commutes`]) reads.
//!
//! The simulator's heap replay fills one [`EpochRefs`] for a sync-free
//! epoch, in one pass over the epoch's events, the first time the epoch
//! would switch processor. The table answers one question: does any
//! processor other than `p` touch a word of this line in this epoch? A
//! line only `p` touches is one whose directory, timestamp and version
//! records no other processor's access can read or write until the next
//! boundary.
//!
//! The shared segment is tracked in granules of a fixed number of words
//! (the trace layout's line), one `u16` per granule: 1 MiB for
//! OCEAN-large's 2,097,152 words in 4-word lines. Private replicas
//! sit above the shared segment, `span` words apart, processor `q`'s at
//! `span × (q + 1)`, so their owner follows from the address and they
//! take no entries. A query for a line of another geometry covers every
//! granule and every replica the line overlaps: a line wider than a
//! granule, or straddling two replicas when `span` is not a multiple of
//! the line, is never mistaken for one processor's. An epoch in which a
//! processor touches a word above the shared segment outside its own
//! replica breaks that layout, and every query then answers `false`.

use tpi_mem::{LineAddr, LineGeometry, ProcId, WordAddr};

/// The most processors a table tracks: their codes and a "several" code
/// take 13 of an entry's 16 bits, leaving 3 for the epoch stamp. A table
/// for more processors records nothing and answers every query `false`.
const MAX_TRACKED_PROCS: u32 = 4096;

/// Per-epoch record of which processor references each granule of the
/// shared segment (see the [module docs](self)).
///
/// An entry holds the epoch's stamp in its high bits and, in the low
/// `owner_bits`, the one processor that referenced the granule or a
/// "several" code. An entry with an older stamp reads as unreferenced, so
/// starting an epoch clears nothing; the whole table is cleared only when
/// the stamp wraps (every 31 epochs at 1,024 processors).
#[derive(Debug, Clone)]
pub struct EpochRefs {
    /// Empty when there are more than [`MAX_TRACKED_PROCS`] processors.
    entries: Vec<u16>,
    /// log2 of the words per granule.
    shift: u32,
    /// Words in the shared segment; private replicas lie above it.
    span: u64,
    owner_bits: u32,
    /// Owner code of a granule two or more processors reference.
    several: u16,
    /// The current epoch's stamp, `1..=max_stamp`.
    stamp: u16,
    max_stamp: u16,
    /// Whether every query answers `false`: this epoch touched a replica
    /// word from another processor, or the table tracks nothing.
    foreign: bool,
}

impl EpochRefs {
    /// An empty table for `procs` processors over a shared segment of
    /// `span` words, tracked in granules of `granule`'s line.
    #[must_use]
    pub fn new(procs: u32, span: u64, granule: LineGeometry) -> Self {
        let tracked = procs <= MAX_TRACKED_PROCS;
        // Codes 0..procs name a processor; `procs` itself means several.
        let owner_bits = u32::BITS - procs.min(MAX_TRACKED_PROCS).leading_zeros();
        let span = span.max(1);
        let shift = granule.words_per_line().trailing_zeros();
        let granules = usize::try_from(span.div_ceil(1 << shift)).expect("table fits in memory");
        EpochRefs {
            entries: vec![0; if tracked { granules } else { 0 }],
            shift,
            span,
            owner_bits,
            several: procs.min(MAX_TRACKED_PROCS) as u16,
            stamp: 1,
            max_stamp: u16::MAX >> owner_bits,
            foreign: !tracked,
        }
    }

    /// Forgets every reference: the table now describes a new, empty
    /// epoch.
    pub fn begin_epoch(&mut self) {
        if self.stamp == self.max_stamp {
            self.entries.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.foreign = self.entries.is_empty();
    }

    /// Records that processor `p` references `addr` in this epoch.
    #[inline]
    pub fn record(&mut self, p: ProcId, addr: WordAddr) {
        if self.foreign {
            return;
        }
        if addr.0 >= self.span {
            let replica = self.span * (u64::from(p.0) + 1);
            self.foreign = addr.0 < replica || addr.0 - replica >= self.span;
            return;
        }
        let (mine, several) = (self.entry(p.0 as u16), self.entry(self.several));
        let slot = &mut self.entries[(addr.0 >> self.shift) as usize];
        if *slot != mine {
            *slot = if *slot >> self.owner_bits == self.stamp {
                several
            } else {
                mine
            };
        }
    }

    /// Whether no processor other than `p` references a word of `line`
    /// (of geometry `geom`) in this epoch.
    #[must_use]
    pub fn only_by(&self, p: ProcId, geom: LineGeometry, line: LineAddr) -> bool {
        if self.foreign {
            return false;
        }
        let lo = geom.first_word(line).0;
        let hi = lo + u64::from(geom.words_per_line());
        if lo < self.span {
            let mine = self.entry(p.0 as u16);
            let first = (lo >> self.shift) as usize;
            let last = ((hi.min(self.span) - 1) >> self.shift) as usize;
            let others = self.entries[first..=last]
                .iter()
                .any(|&e| e != mine && e >> self.owner_bits == self.stamp);
            if others {
                return false;
            }
        }
        // Replica `q` holds words span * (q + 1) .. span * (q + 2).
        hi <= self.span || {
            let owner = |w: u64| w / self.span - 1;
            owner(lo.max(self.span)) == u64::from(p.0) && owner(hi - 1) == u64::from(p.0)
        }
    }

    fn entry(&self, code: u16) -> u16 {
        (self.stamp << self.owner_bits) | code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId(0);
    const P1: ProcId = ProcId(1);

    fn geom(words: u32) -> LineGeometry {
        LineGeometry::new(words)
    }

    #[test]
    fn one_referencing_processor_owns_the_line() {
        let mut r = EpochRefs::new(4, 64, geom(4));
        r.begin_epoch();
        r.record(P0, WordAddr(5));
        r.record(P0, WordAddr(6));
        r.record(P1, WordAddr(9));
        let g = geom(4);
        assert!(r.only_by(P0, g, LineAddr(1)));
        assert!(!r.only_by(P1, g, LineAddr(1)));
        assert!(r.only_by(P1, g, LineAddr(2)));
        // Unreferenced lines belong to everybody.
        assert!(r.only_by(P0, g, LineAddr(7)) && r.only_by(P1, g, LineAddr(7)));
        r.record(P1, WordAddr(4));
        assert!(!r.only_by(P0, g, LineAddr(1)) && !r.only_by(P1, g, LineAddr(1)));
    }

    #[test]
    fn a_new_epoch_forgets_and_the_stamp_wraps_cleanly() {
        // 4,096 processors leave a 3-bit stamp: 7 epochs per wrap.
        let mut r = EpochRefs::new(MAX_TRACKED_PROCS, 16, geom(4));
        for _ in 0..600 {
            r.begin_epoch();
            assert!(r.only_by(P0, geom(4), LineAddr(0)));
            r.record(P1, WordAddr(0));
            assert!(!r.only_by(P0, geom(4), LineAddr(0)));
        }
    }

    #[test]
    fn more_processors_than_tracked_never_commute() {
        let mut r = EpochRefs::new(MAX_TRACKED_PROCS + 1, 64, geom(4));
        r.begin_epoch();
        r.record(P0, WordAddr(0));
        assert!(!r.only_by(P0, geom(4), LineAddr(0)));
        assert!(!r.only_by(P1, geom(4), LineAddr(9)));
    }

    #[test]
    fn wider_engine_lines_cover_every_granule() {
        let mut r = EpochRefs::new(2, 64, geom(4));
        r.begin_epoch();
        r.record(P1, WordAddr(12));
        // An 8-word line 8..16 spans granules 2 and 3.
        assert!(!r.only_by(P0, geom(8), LineAddr(1)));
        assert!(r.only_by(P0, geom(8), LineAddr(0)));
        // A 2-word line inside a granule P1 touched is P1's too.
        assert!(!r.only_by(P0, geom(2), LineAddr(7)));
    }

    #[test]
    fn private_replicas_belong_to_their_processor_only() {
        // A 36-word shared segment: replica q at 36 (q + 1).
        let r = {
            let mut r = EpochRefs::new(4, 36, geom(4));
            r.begin_epoch();
            r
        };
        let g8 = geom(8);
        // Words 40..48 lie in P0's replica (36..72).
        assert!(r.only_by(P0, g8, LineAddr(5)));
        assert!(!r.only_by(P1, g8, LineAddr(5)));
        // Words 64..72 are P0's, 72..80 are P1's.
        assert!(r.only_by(P0, g8, LineAddr(8)));
        assert!(r.only_by(P1, g8, LineAddr(9)));
        // Words 104..112 straddle P1's replica and P2's (108..).
        assert!(!r.only_by(P1, g8, LineAddr(13)));
        assert!(!r.only_by(ProcId(2), g8, LineAddr(13)));
        // Words 32..40 straddle the shared segment and P0's replica.
        assert!(r.only_by(P0, g8, LineAddr(4)));
        assert!(!r.only_by(P1, g8, LineAddr(4)));
    }

    #[test]
    fn a_replica_word_touched_by_another_processor_disables_the_epoch() {
        let mut r = EpochRefs::new(4, 36, geom(4));
        r.begin_epoch();
        r.record(P0, WordAddr(40));
        assert!(r.only_by(P0, geom(4), LineAddr(0)));
        r.record(P1, WordAddr(40));
        assert!(!r.only_by(P0, geom(4), LineAddr(0)));
        r.begin_epoch();
        assert!(r.only_by(P0, geom(4), LineAddr(0)));
    }
}
