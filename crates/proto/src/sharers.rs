//! Growable per-line presence bitmap shared by the directory engines.
//!
//! Full-map directories ([`crate::fullmap`]) and the hybrid
//! update/invalidate directory ([`crate::hybrid`]) both track which
//! processors hold a copy of each line. A single machine word caps that
//! set at 64 processors; the large-scale study (EXPERIMENTS.md E24) runs
//! the same engines at 256 and 1024, so the presence set here grows on
//! demand in 64-bit words. This also keeps the storage model honest: the
//! full-map cost the paper charges in its directory-storage comparison is
//! O(P) bits per line, which is exactly what this representation pays.
//!
//! The engines keep those per-line records in a `LineTable`: an arena of
//! records found through a dense line-address index, so a directory
//! lookup does no hashing and a warm directory allocates nothing.

use std::fmt;
use tpi_mem::DenseTable;

/// A set of processor ids backed by a lazily-grown `Vec` of 64-bit words.
///
/// The empty set allocates nothing until a line gains its first sharer,
/// and emptying a set keeps its storage, so a line that gains sharers
/// again reuses it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SharerSet {
    words: Vec<u64>,
}

impl SharerSet {
    /// Adds processor `p` to the set.
    pub fn insert(&mut self, p: u32) {
        let (w, b) = (p as usize / 64, p % 64);
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << b;
    }

    /// Removes processor `p` from the set (no-op if absent).
    pub fn remove(&mut self, p: u32) {
        let (w, b) = (p as usize / 64, p % 64);
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1u64 << b);
        }
    }

    /// Whether processor `p` is in the set.
    #[must_use]
    pub fn contains(&self, p: u32) -> bool {
        let (w, b) = (p as usize / 64, p % 64);
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Visits the members in ascending order, removing those for which
    /// `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                if !keep(wi as u32 * 64 + b) {
                    *word &= !(1u64 << b);
                }
            }
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Drops every member except `p` (which keeps its current value).
    pub fn retain_only(&mut self, p: u32) {
        let had = self.contains(p);
        self.words.clear();
        if had {
            self.insert(p);
        }
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of members.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates the members (processor ids) in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }
}

impl fmt::Debug for SharerSet {
    /// Prints the members, so equal sets print alike whatever storage
    /// they kept.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A per-line record that can be empty; an empty record counts as absent.
pub(crate) trait LineRecord: Default + fmt::Debug {
    /// Whether the record holds nothing (no holder of the line).
    fn is_empty(&self) -> bool;
}

impl LineRecord for SharerSet {
    fn is_empty(&self) -> bool {
        SharerSet::is_empty(self)
    }
}

/// Per-line records (directory entries, sharer sets) in an arena, found
/// through a dense line-address index.
///
/// A record is created on the first [`LineTable::entry`] call for its line
/// and never freed: one that empties keeps its storage for the line's next
/// holder. An empty record counts as absent, so `Debug` prints only the
/// non-empty ones, in line-address order, and two tables holding the same
/// records print alike whatever their history.
#[derive(Clone)]
pub(crate) struct LineTable<E> {
    /// Arena index + 1 per line address (0 = no record yet).
    slots: DenseTable<u32>,
    records: Vec<E>,
}

impl<E> Default for LineTable<E> {
    fn default() -> Self {
        LineTable {
            slots: DenseTable::default(),
            records: Vec::new(),
        }
    }
}

impl<E: LineRecord> LineTable<E> {
    /// The record of line `la`, if one was ever created (it may be empty).
    #[inline]
    pub(crate) fn get(&self, la: u64) -> Option<&E> {
        match self.slots.get(la) {
            0 => None,
            slot => Some(&self.records[slot as usize - 1]),
        }
    }

    /// Mutable access to the record of line `la`, if one was ever created.
    #[inline]
    pub(crate) fn get_mut(&mut self, la: u64) -> Option<&mut E> {
        match self.slots.get(la) {
            0 => None,
            slot => Some(&mut self.records[slot as usize - 1]),
        }
    }

    /// The record of line `la`, created empty on first use.
    #[inline]
    pub(crate) fn entry(&mut self, la: u64) -> &mut E {
        let slot = self.slots.get_mut(la);
        if *slot == 0 {
            self.records.push(E::default());
            *slot = u32::try_from(self.records.len()).expect("fewer than 2^32 lines");
        }
        &mut self.records[*slot as usize - 1]
    }

    /// Every non-empty record with its line address, in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &E)> + '_ {
        self.slots
            .iter()
            .map(|(la, slot)| (la, &self.records[slot as usize - 1]))
            .filter(|(_, e)| !e.is_empty())
    }
}

impl<E: LineRecord> fmt::Debug for LineTable<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_set_ops() {
        let mut s = SharerSet::default();
        assert!(s.is_empty());
        for p in [0, 63, 64, 1023] {
            s.insert(p);
        }
        assert_eq!(s.count(), 4);
        assert!(s.contains(64) && !s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 1023]);
        s.remove(63);
        assert!(!s.contains(63));
        s.retain_only(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64]);
        s.retain_only(7); // 7 was not present: set goes empty
        assert!(s.is_empty());
        s.insert(200);
        s.clear();
        assert!(s.is_empty());
        let mut r = SharerSet::default();
        for p in [1, 2, 70, 130] {
            r.insert(p);
        }
        let mut seen = Vec::new();
        r.retain(|p| {
            seen.push(p);
            p % 2 == 0
        });
        assert_eq!(seen, vec![1, 2, 70, 130], "ascending visit");
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 70, 130]);
        // An empty set never allocated and equals the default.
        assert_eq!(SharerSet::default(), {
            let mut t = SharerSet::default();
            t.insert(5);
            t.remove(5);
            t.retain_only(5);
            t
        });
    }

    #[test]
    fn line_table_hides_empty_records() {
        let mut a: LineTable<SharerSet> = LineTable::default();
        let mut b: LineTable<SharerSet> = LineTable::default();
        assert!(a.get(5).is_none());
        a.entry(5).insert(3);
        a.entry(9).insert(1);
        a.get_mut(5).unwrap().remove(3);
        assert!(a.get(5).is_some_and(SharerSet::is_empty), "record kept");
        b.entry(9).insert(1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.iter().map(|(la, _)| la).collect::<Vec<_>>(), vec![9]);
    }
}
