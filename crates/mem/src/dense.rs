//! Dense tables keyed by word or line address, paged in lazily.
//!
//! The coherence hardware the paper models keeps its state in fixed
//! arrays indexed by address: a timetag per cached word, O(P) presence
//! bits per line in a full-map directory. The simulator's engines keep
//! their address-keyed state the same way. [`DenseTable`] maps an address
//! to a `Copy` value and [`DenseBitSet`] holds a set of addresses. A lookup
//! is a few array indexings, with no hashing, and a write allocates only
//! when it lands on a page that does not exist yet.
//!
//! Memory follows the address range a table touches, not its key count:
//! every page holds [`PAGE_ENTRIES`] consecutive addresses and appears on
//! the first write of a non-default value into it. Reads never allocate;
//! an address on a missing page reads as the default (`T::default()`, or
//! absent for the bit set). A two-level page directory finds the page, so
//! the sparse, far-apart clusters of private replicas (one per processor,
//! at `span × (p + 1)`) cost a few bytes of directory each, not a
//! directory slot for every page in between.
//!
//! `Debug` prints every non-default entry in address order, like a
//! `BTreeMap`. Equal contents print equal text whatever the write history,
//! which is what `tpi-model`'s fingerprint of an engine's `Debug` text
//! relies on.
//!
//! # Example
//!
//! ```
//! use tpi_mem::{DenseBitSet, DenseTable, Version};
//!
//! let mut versions: DenseTable<Version> = DenseTable::default();
//! versions.set(0x40, 3);
//! assert_eq!(versions.get(0x40), 3);
//! assert_eq!(versions.get(0x41), 0, "unwritten entries read as default");
//!
//! let mut seen = DenseBitSet::default();
//! assert!(seen.insert(7));
//! assert!(seen.contains(7) && !seen.contains(8));
//! assert_eq!(format!("{versions:?} {seen:?}"), "{64: 3} {7}");
//! ```

use std::fmt;

/// log2 of [`PAGE_ENTRIES`].
const PAGE_BITS: u32 = 12;

/// Entries per page: a page is the unit a table allocates.
pub const PAGE_ENTRIES: usize = 1 << PAGE_BITS;

/// log2 of the page slots in one directory chunk.
const CHUNK_BITS: u32 = 6;

/// Page slots per directory chunk (64 pages, 2^18 addresses).
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;

/// Shift from an address to its directory chunk.
const CHUNK_SHIFT: u32 = PAGE_BITS + CHUNK_BITS;

/// Bit-set words per page.
const PAGE_WORDS: usize = PAGE_ENTRIES / 64;

/// Offset of `key` within its page.
#[inline]
fn offset(key: u64) -> usize {
    (key as usize) & (PAGE_ENTRIES - 1)
}

/// Two-level page directory: chunk, then page within the chunk. Slots hold
/// an index plus one, so zero means "none".
#[derive(Clone, Default)]
struct PageDir {
    /// Chunk index + 1 for each 2^18-address block.
    chunks_of: Vec<u32>,
    /// Page index + 1 for each page of a chunk.
    chunks: Vec<[u32; CHUNK_PAGES]>,
}

impl PageDir {
    /// The page holding `key`, if it exists.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let c = *self
            .chunks_of
            .get(usize::try_from(key >> CHUNK_SHIFT).ok()?)?;
        if c == 0 {
            return None;
        }
        let p = self.chunks[c as usize - 1][(key >> PAGE_BITS) as usize & (CHUNK_PAGES - 1)];
        (p != 0).then(|| p as usize - 1)
    }

    /// The page holding `key`; registers page index `next` for it if it
    /// has none yet. Returns the page index and whether it is `next`.
    fn find_or_add(&mut self, key: u64, next: usize) -> (usize, bool) {
        let top = usize::try_from(key >> CHUNK_SHIFT).expect("address beyond the host's range");
        if top >= self.chunks_of.len() {
            self.chunks_of.resize(top + 1, 0);
        }
        if self.chunks_of[top] == 0 {
            self.chunks.push([0; CHUNK_PAGES]);
            self.chunks_of[top] = index_slot(self.chunks.len() - 1);
        }
        let chunk = &mut self.chunks[self.chunks_of[top] as usize - 1];
        let slot = &mut chunk[(key >> PAGE_BITS) as usize & (CHUNK_PAGES - 1)];
        if *slot == 0 {
            *slot = index_slot(next);
            (next, true)
        } else {
            (*slot as usize - 1, false)
        }
    }

    /// Every page as `(first address, page index)`, in address order.
    fn pages(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.chunks_of
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .flat_map(move |(top, &c)| {
                self.chunks[c as usize - 1]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p != 0)
                    .map(move |(s, &p)| {
                        let first = ((top as u64) << CHUNK_SHIFT) | ((s as u64) << PAGE_BITS);
                        (first, p as usize - 1)
                    })
            })
    }
}

/// A directory slot for index `i` (index plus one; zero means none).
fn index_slot(i: usize) -> u32 {
    u32::try_from(i + 1).expect("more than 2^32 pages")
}

/// A map from word or line address to a `Copy` value, stored densely in
/// lazily allocated pages (see the [module docs](self)).
///
/// Every address has a value: one never written reads as `T::default()`,
/// and writing the default back is the same as removing the entry.
#[derive(Clone)]
pub struct DenseTable<T> {
    dir: PageDir,
    pages: Vec<Box<[T; PAGE_ENTRIES]>>,
}

impl<T> Default for DenseTable<T> {
    fn default() -> Self {
        DenseTable {
            dir: PageDir::default(),
            pages: Vec::new(),
        }
    }
}

impl<T: Copy + Default + PartialEq> DenseTable<T> {
    /// The value at `key`.
    #[inline]
    #[must_use]
    pub fn get(&self, key: u64) -> T {
        match self.dir.find(key) {
            Some(page) => self.pages[page][offset(key)],
            None => T::default(),
        }
    }

    /// Mutable access to the value at `key`, allocating its page if needed.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        let page = match self.dir.find(key) {
            Some(page) => page,
            None => self.add_page(key),
        };
        &mut self.pages[page][offset(key)]
    }

    /// Sets the value at `key`. Writing the default never allocates.
    #[inline]
    pub fn set(&mut self, key: u64, value: T) {
        if value == T::default() {
            if let Some(page) = self.dir.find(key) {
                self.pages[page][offset(key)] = value;
            }
        } else {
            *self.get_mut(key) = value;
        }
    }

    /// Returns the value at `key` and resets it to the default.
    #[inline]
    pub fn take(&mut self, key: u64) -> T {
        match self.dir.find(key) {
            Some(page) => std::mem::take(&mut self.pages[page][offset(key)]),
            None => T::default(),
        }
    }

    /// Every non-default entry as `(address, value)`, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.dir.pages().flat_map(move |(first, page)| {
            self.pages[page]
                .iter()
                .enumerate()
                .filter(|&(_, v)| *v != T::default())
                .map(move |(i, &v)| (first + i as u64, v))
        })
    }

    #[cold]
    fn add_page(&mut self, key: u64) -> usize {
        let (page, added) = self.dir.find_or_add(key, self.pages.len());
        if added {
            let fresh: Box<[T]> = vec![T::default(); PAGE_ENTRIES].into_boxed_slice();
            self.pages
                .push(fresh.try_into().unwrap_or_else(|_| unreachable!()));
        }
        page
    }
}

impl<T: Copy + Default + PartialEq + fmt::Debug> fmt::Debug for DenseTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of word or line addresses, one bit per address in lazily
/// allocated pages (see the [module docs](self)).
#[derive(Clone, Default)]
pub struct DenseBitSet {
    dir: PageDir,
    pages: Vec<[u64; PAGE_WORDS]>,
}

impl DenseBitSet {
    /// Whether `key` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.dir.find(key).is_some_and(|page| {
            let o = offset(key);
            self.pages[page][o / 64] & (1 << (o % 64)) != 0
        })
    }

    /// Adds `key`; returns whether it was newly added.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        let page = match self.dir.find(key) {
            Some(page) => page,
            None => self.add_page(key),
        };
        let o = offset(key);
        let word = &mut self.pages[page][o / 64];
        let bit = 1 << (o % 64);
        let added = *word & bit == 0;
        *word |= bit;
        added
    }

    /// Removes `key`; returns whether it was present. Never allocates.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(page) = self.dir.find(key) else {
            return false;
        };
        let o = offset(key);
        let word = &mut self.pages[page][o / 64];
        let bit = 1 << (o % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Every member, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.dir.pages().flat_map(move |(first, page)| {
            self.pages[page]
                .iter()
                .enumerate()
                .flat_map(move |(wi, &word)| {
                    let mut rest = word;
                    std::iter::from_fn(move || {
                        if rest == 0 {
                            return None;
                        }
                        let b = rest.trailing_zeros();
                        rest &= rest - 1;
                        Some(first + (wi as u64) * 64 + u64::from(b))
                    })
                })
        })
    }

    #[cold]
    fn add_page(&mut self, key: u64) -> usize {
        let (page, added) = self.dir.find_or_add(key, self.pages.len());
        if added {
            self.pages.push([0; PAGE_WORDS]);
        }
        page
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_allocate_and_default_writes_are_free() {
        let mut t: DenseTable<u64> = DenseTable::default();
        assert_eq!(t.get(1 << 40), 0);
        t.set(123, 0);
        assert_eq!(t.take(9), 0);
        assert!(t.pages.is_empty(), "no page for reads or default writes");
        t.set(123, 5);
        assert_eq!(t.pages.len(), 1);
        assert_eq!(t.take(123), 5);
        assert_eq!(t.get(123), 0);
        assert_eq!(format!("{t:?}"), "{}");
    }

    #[test]
    fn entries_print_in_address_order_across_pages() {
        let mut t: DenseTable<u32> = DenseTable::default();
        let span = 1u64 << 21;
        for key in [span * 3 + 1, 4095, 4096, 0, 1 << 33] {
            *t.get_mut(key) += 1;
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 4095, 4096, span * 3 + 1, 1 << 33]);

        let mut s = DenseBitSet::default();
        for key in [1 << 33, 4096, 63, 64, 0] {
            assert!(s.insert(key));
        }
        assert!(!s.insert(64));
        assert_eq!(
            format!("{s:?}"),
            format!("{{0, 63, 64, 4096, {}}}", 1u64 << 33)
        );
        assert!(s.remove(63) && !s.remove(63) && !s.remove(99_999));
        assert_eq!(s.iter().count(), 4);
    }

    #[test]
    fn far_apart_clusters_share_no_directory_slots() {
        let mut s = DenseBitSet::default();
        s.insert(0);
        s.insert(1 << 32);
        assert_eq!(s.pages.len(), 2);
        assert_eq!(s.dir.chunks.len(), 2);
        // One u32 per 2^18 addresses below the highest key.
        assert_eq!(s.dir.chunks_of.len(), (1 << 14) + 1);
    }
}
