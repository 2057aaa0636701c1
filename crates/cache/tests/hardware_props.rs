//! Property tests for the cache hardware models.
//!
//! * The two-phase reset discipline must keep every surviving timetag's
//!   modular age *exact* for arbitrarily long epoch sequences — that is
//!   the invariant the whole TPI hit check rests on.
//! * The set-associative cache (an arena of lines behind a flat way
//!   index) must agree with a naive reference model of true-LRU
//!   replacement, a `Vec` of lines per set: the same victims on install,
//!   the same heads on remove, the same survivors of resets and retains,
//!   and the same resident lines in the same MRU order.

use tpi_cache::{Cache, CacheConfig, Evicted, Line, ResetEvent, ResetStrategy, TagClock};
use tpi_mem::{LineAddr, LineGeometry};
use tpi_testkit::prelude::*;

/// A reference model's line: address, masks and the timetags the reset
/// events look at.
#[derive(Debug, Clone, PartialEq)]
struct RefLine {
    addr: u64,
    valid: u64,
    dirty: u64,
    accessed: u64,
    tags: [u16; 4],
}

impl RefLine {
    fn fresh(addr: u64) -> Self {
        RefLine {
            addr,
            valid: 0,
            dirty: 0,
            accessed: 0,
            tags: [0; 4],
        }
    }

    fn mask(wpl: u32, f: impl Fn(u32) -> bool) -> u64 {
        (0..wpl).filter(|&w| f(w)).map(|w| 1 << w).sum()
    }

    fn of(l: &Line, wpl: u32) -> Self {
        let mut tags = [0; 4];
        for (w, t) in tags.iter_mut().enumerate() {
            *t = l.timetag(w as u32);
        }
        RefLine {
            addr: l.addr.0,
            valid: Self::mask(wpl, |w| l.word_valid(w)),
            dirty: Self::mask(wpl, |w| l.word_dirty(w)),
            accessed: Self::mask(wpl, |w| l.word_accessed(w)),
            tags,
        }
    }

    /// What [`Evicted`] keeps of a line: no timetags.
    fn head(self) -> Self {
        RefLine {
            tags: [0; 4],
            ..self
        }
    }

    fn of_head(e: &Evicted, wpl: u32) -> Self {
        RefLine {
            addr: e.addr.0,
            valid: Self::mask(wpl, |w| e.word_valid(w)),
            dirty: Self::mask(wpl, |w| e.word_dirty(w)),
            accessed: Self::mask(wpl, |w| e.word_accessed(w)),
            tags: [0; 4],
        }
    }

    fn touch(&mut self, word: u32, tag: u16, dirty: bool) {
        self.valid |= 1 << word;
        self.accessed |= 1 << word;
        if dirty {
            self.dirty |= 1 << word;
        }
        self.tags[word as usize] = tag;
    }

    /// Applies a reset event; returns how many valid words it dropped.
    fn reset(&mut self, ev: ResetEvent) -> u64 {
        let before = self.valid.count_ones();
        for w in 0..4 {
            let t = self.tags[w];
            let hit = match ev {
                ResetEvent::InvalidateTagRange { lo, hi } => t >= lo && t <= hi,
                ResetEvent::InvalidateAll => true,
            };
            if hit {
                self.valid &= !(1 << w);
            }
        }
        u64::from(before - self.valid.count_ones())
    }
}

proptest! {
    #[test]
    fn reset_discipline_keeps_ages_exact(
        bits in 2u32..8,
        strategy_two_phase in any::<bool>(),
        epochs in 1usize..400,
        stamp_pattern in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        let strategy = if strategy_two_phase {
            ResetStrategy::TwoPhase
        } else {
            ResetStrategy::FullFlushOnWrap
        };
        let mut clock = TagClock::new(bits, strategy);
        // (stamp_epoch, tag) of simulated surviving words.
        let mut words: Vec<(u64, u16)> = Vec::new();
        for e in 0..epochs {
            if stamp_pattern[e % stamp_pattern.len()] {
                words.push((clock.epoch().0, clock.hw_tag()));
            }
            match clock.advance() {
                Some(ResetEvent::InvalidateTagRange { lo, hi }) => {
                    words.retain(|&(_, t)| t < lo || t > hi);
                }
                Some(ResetEvent::InvalidateAll) => words.clear(),
                None => {}
            }
            for &(stamp, tag) in &words {
                let true_age = clock.epoch().0 - stamp;
                prop_assert_eq!(
                    clock.age_of(tag),
                    true_age,
                    "bits={} strategy={:?} epoch={}",
                    bits,
                    strategy,
                    clock.epoch().0
                );
                // fresh_within must agree with the true age.
                prop_assert_eq!(clock.fresh_within(tag, true_age as u32), true);
                if true_age > 0 {
                    prop_assert_eq!(clock.fresh_within(tag, (true_age - 1) as u32), false);
                }
            }
        }
    }

    #[test]
    fn cache_matches_reference_lru(
        assoc in 0usize..3,
        ops in prop::collection::vec((0u8..10, 0u64..48, 0u32..4, 0u16..8), 1..300),
    ) {
        // 16-line cache with 1-, 2- or 4-way sets.
        let assoc = [1u32, 2, 4][assoc];
        let cfg = CacheConfig {
            size_bytes: 16 * 16,
            assoc,
            geometry: LineGeometry::new(4),
        };
        let mut cache = Cache::new(cfg);
        let sets = cfg.num_sets() as u64;
        // Reference model: per set, its lines MRU-first.
        let mut reference: Vec<Vec<RefLine>> = vec![Vec::new(); sets as usize];
        for &(op, a, word, tag) in &ops {
            let set = &mut reference[(a % sets) as usize];
            let pos = set.iter().position(|l| l.addr == a);
            match op {
                // Install: the displaced line is the old copy or the LRU.
                0..=2 => {
                    let expected = match pos {
                        Some(pos) => Some(set.remove(pos)),
                        None if set.len() == assoc as usize => set.pop(),
                        None => None,
                    };
                    set.insert(0, RefLine::fresh(a));
                    let (line, evicted) = cache.install(LineAddr(a));
                    prop_assert_eq!(RefLine::of(line, 4), RefLine::fresh(a));
                    prop_assert_eq!(evicted.map(|e| RefLine::of_head(&e, 4)), expected.map(RefLine::head));
                }
                // Touch and modify one word: valid, dirty, accessed, tag.
                3..=5 => {
                    let got = cache.touch_mut(LineAddr(a));
                    prop_assert_eq!(got.is_some(), pos.is_some());
                    if let (Some(line), Some(pos)) = (got, pos) {
                        let mut r = set.remove(pos);
                        r.touch(word, tag, op == 4);
                        set.insert(0, r);
                        line.set_word_valid(word, true);
                        line.set_word_accessed(word);
                        line.set_timetag(word, tag);
                        if op == 4 {
                            line.set_word_dirty(word, true);
                        }
                    }
                }
                6 => {
                    let expected = pos.map(|pos| set.remove(pos).head());
                    let got = cache.remove(LineAddr(a)).map(|e| RefLine::of_head(&e, 4));
                    prop_assert_eq!(got, expected);
                }
                // Reset: drop words whose tag lies in [lo, lo + 3].
                7 | 8 => {
                    let ev = if op == 7 {
                        ResetEvent::InvalidateTagRange { lo: tag, hi: tag + 3 }
                    } else {
                        ResetEvent::InvalidateAll
                    };
                    let mut expected = 0;
                    for set in &mut reference {
                        for l in set.iter_mut() {
                            expected += l.reset(ev);
                        }
                        set.retain(|l| l.valid != 0);
                    }
                    prop_assert_eq!(cache.apply_reset(ev), expected);
                }
                // Retain the lines whose address is not a multiple of
                // `word + 2`, cleaning the survivors.
                _ => {
                    let k = u64::from(word) + 2;
                    for set in &mut reference {
                        set.retain(|l| l.addr % k != 0);
                        for l in set.iter_mut() {
                            l.dirty = 0;
                        }
                    }
                    cache.retain_lines(|l| {
                        l.clean_all();
                        l.addr.0 % k != 0
                    });
                }
            }
            // Same resident lines, same set order, same MRU order.
            let mut got = Vec::new();
            cache.for_each_line(|l| got.push(RefLine::of(l, 4)));
            let expected: Vec<RefLine> = reference.iter().flatten().cloned().collect();
            prop_assert_eq!(cache.resident_lines(), expected.len());
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn reset_never_invalidates_current_epoch_words(
        bits in 2u32..6,
        epochs in 1u64..200,
    ) {
        // A word stamped in the epoch right before a crossing always
        // survives it (age 1 < half-range for every width >= 2).
        let mut clock = TagClock::new(bits, ResetStrategy::TwoPhase);
        for _ in 0..epochs {
            let tag = clock.hw_tag();
            if let Some(ResetEvent::InvalidateTagRange { lo, hi }) = clock.advance() {
                prop_assert!(
                    tag < lo || tag > hi,
                    "freshly stamped tag {tag} would be dropped by [{lo},{hi}]"
                );
            }
        }
    }
}
