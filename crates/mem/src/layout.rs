//! Placement of program arrays onto the flat shared word-address space.
//!
//! The compiler analyses in `tpi-compiler` reason about arrays symbolically;
//! the simulator needs concrete word addresses. A [`MemLayout`] assigns every
//! declared array a line-aligned base address (row-major element order) so
//! that both views agree. Shared arrays live in the globally-visible segment;
//! private data is modelled as processor-local and never enters the coherence
//! protocols (its cost is folded into per-statement compute cycles by the
//! trace generator).

use crate::{LineGeometry, WordAddr};
use std::fmt;

/// Identifier of a declared array, dense from zero per program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Whether a variable participates in interprocessor sharing.
///
/// Early compiler-directed machines (C.mmp, Cedar) used exactly this binary
/// attribute; the paper's BASE scheme caches only `Private` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sharing {
    /// Visible to all processors; subject to coherence.
    Shared,
    /// Local to one processor; always cacheable, never stale.
    Private,
}

/// Declaration of one program array: a name, a shape, and a sharing class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    name: String,
    dims: Vec<u64>,
    sharing: Sharing,
}

impl ArrayDecl {
    /// Declares an array.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty or any extent is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, dims: Vec<u64>, sharing: Sharing) -> Self {
        assert!(!dims.is_empty(), "array must have at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "array extents must be nonzero");
        ArrayDecl {
            name: name.into(),
            dims,
            sharing,
        }
    }

    /// The array's source-level name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Extents of each dimension, outermost first (row-major).
    #[must_use]
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Sharing class.
    #[must_use]
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }

    /// Total number of elements (= words; one word per element).
    #[must_use]
    pub fn len_words(&self) -> u64 {
        self.dims.iter().product()
    }
}

/// Concrete placement of a set of arrays in the shared address space.
///
/// Bases are aligned to cache-line boundaries so that distinct arrays never
/// share a line (the paper's false-sharing effects arise *within* an array,
/// not from accidental co-location of unrelated variables).
#[derive(Debug, Clone)]
pub struct MemLayout {
    decls: Vec<ArrayDecl>,
    bases: Vec<WordAddr>,
    total_words: u64,
    geometry: LineGeometry,
}

impl MemLayout {
    /// Lays out `decls` consecutively, each base aligned to `geometry` lines.
    #[must_use]
    pub fn new(decls: Vec<ArrayDecl>, geometry: LineGeometry) -> Self {
        let words_per_line = u64::from(geometry.words_per_line());
        let mut bases = Vec::with_capacity(decls.len());
        let mut next = 0u64;
        for d in &decls {
            bases.push(WordAddr(next));
            let len = d.len_words();
            next += len.div_ceil(words_per_line) * words_per_line;
        }
        MemLayout {
            decls,
            bases,
            total_words: next,
            geometry,
        }
    }

    /// The declarations in layout order.
    #[must_use]
    pub fn decls(&self) -> &[ArrayDecl] {
        &self.decls
    }

    /// Declaration of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn decl(&self, id: ArrayId) -> &ArrayDecl {
        &self.decls[id.0 as usize]
    }

    /// Base word address of `id`.
    #[must_use]
    pub fn base(&self, id: ArrayId) -> WordAddr {
        self.bases[id.0 as usize]
    }

    /// Line geometry this layout was aligned to.
    #[must_use]
    pub fn geometry(&self) -> LineGeometry {
        self.geometry
    }

    /// Total footprint in words (including alignment padding).
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Word address of element `indices` of array `id`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches the declaration or any index is
    /// out of bounds (the validator in `tpi-ir` guarantees in-bounds access
    /// for well-formed programs; out-of-bounds here indicates an IR bug).
    #[must_use]
    pub fn addr(&self, id: ArrayId, indices: &[i64]) -> WordAddr {
        self.addr_with(id, indices, |&ix, _| ix)
    }

    /// Word address of an element of array `id`, row-major, with the index
    /// along each dimension computed as the offset is: `index(sub, extent)`
    /// for each of `subs` (one per dimension, outermost first) and that
    /// dimension's extent. A caller evaluating subscript expressions needs no
    /// index buffer, and the rank and bounds checks of [`MemLayout::addr`]
    /// apply unchanged.
    ///
    /// # Panics
    ///
    /// As [`MemLayout::addr`].
    #[inline]
    #[must_use]
    pub fn addr_with<S>(
        &self,
        id: ArrayId,
        subs: &[S],
        mut index: impl FnMut(&S, u64) -> i64,
    ) -> WordAddr {
        let decl = self.decl(id);
        assert_eq!(
            subs.len(),
            decl.dims.len(),
            "rank mismatch addressing {}: got {} indices for {} dims",
            decl.name,
            subs.len(),
            decl.dims.len()
        );
        let mut offset = 0u64;
        for (sub, &dim) in subs.iter().zip(&decl.dims) {
            let ix = index(sub, dim);
            assert!(
                ix >= 0 && (ix as u64) < dim,
                "index {ix} out of bounds 0..{dim} for array {}",
                decl.name
            );
            offset = offset * dim + ix as u64;
        }
        WordAddr(self.base(id).0 + offset)
    }

    /// The array containing `addr`, if any (None for padding words).
    #[must_use]
    pub fn array_of(&self, addr: WordAddr) -> Option<ArrayId> {
        // bases are sorted; find the last base <= addr.
        let idx = match self.bases.binary_search_by(|b| b.0.cmp(&addr.0)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let within = addr.0 - self.bases[idx].0;
        (within < self.decls[idx].len_words()).then_some(ArrayId(idx as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> MemLayout {
        MemLayout::new(
            vec![
                ArrayDecl::new("a", vec![10], Sharing::Shared),
                ArrayDecl::new("b", vec![3, 4], Sharing::Shared),
                ArrayDecl::new("p", vec![5], Sharing::Private),
            ],
            LineGeometry::new(4),
        )
    }

    #[test]
    fn bases_are_line_aligned_and_disjoint() {
        let l = layout();
        assert_eq!(l.base(ArrayId(0)), WordAddr(0));
        // "a" has 10 words -> padded to 12.
        assert_eq!(l.base(ArrayId(1)), WordAddr(12));
        // "b" has 12 words exactly.
        assert_eq!(l.base(ArrayId(2)), WordAddr(24));
        assert_eq!(l.total_words(), 32);
        for id in 0..3 {
            assert_eq!(l.base(ArrayId(id)).0 % 4, 0);
        }
    }

    #[test]
    fn row_major_addressing() {
        let l = layout();
        assert_eq!(l.addr(ArrayId(0), &[0]), WordAddr(0));
        assert_eq!(l.addr(ArrayId(0), &[9]), WordAddr(9));
        assert_eq!(l.addr(ArrayId(1), &[0, 0]), WordAddr(12));
        assert_eq!(l.addr(ArrayId(1), &[1, 0]), WordAddr(16));
        assert_eq!(l.addr(ArrayId(1), &[2, 3]), WordAddr(23));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let l = layout();
        let _ = l.addr(ArrayId(0), &[10]);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rank_mismatch_panics() {
        let l = layout();
        let _ = l.addr(ArrayId(1), &[1]);
    }

    #[test]
    fn reverse_lookup() {
        let l = layout();
        assert_eq!(l.array_of(WordAddr(9)), Some(ArrayId(0)));
        assert_eq!(l.array_of(WordAddr(10)), None); // padding
        assert_eq!(l.array_of(WordAddr(12)), Some(ArrayId(1)));
        assert_eq!(l.array_of(WordAddr(28)), Some(ArrayId(2)));
        assert_eq!(l.array_of(WordAddr(29)), None); // past end of "p"
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_dims_rejected() {
        let _ = ArrayDecl::new("x", vec![], Sharing::Shared);
    }
}
