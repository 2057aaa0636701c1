//! Memory-system vocabulary shared by every crate in the TPI coherence study.
//!
//! The paper models a distributed shared-memory machine built from
//! off-the-shelf microprocessors (a Cray-T3D-like system). All crates agree
//! on a *word-granular* view of memory: the unit of compiler analysis and of
//! TPI timetag bookkeeping is a 32-bit word, while caches transfer multi-word
//! lines. This crate defines the address arithmetic, processor/epoch
//! identifiers, the compiler-to-hardware read annotations, the layout of
//! program arrays onto the flat shared address space, and the
//! address-keyed containers the engines keep their state in
//! ([`DenseTable`], [`DenseBitSet`], and the hash maps of [`fasthash`]).
//!
//! # Example
//!
//! ```
//! use tpi_mem::{LineGeometry, WordAddr};
//!
//! let geom = LineGeometry::new(4); // 4 words (16 bytes) per line
//! let addr = WordAddr(13);
//! assert_eq!(geom.line_of(addr).0, 3);
//! assert_eq!(geom.word_in_line(addr), 1);
//! ```

#![warn(missing_docs)]

pub mod dense;
pub mod fasthash;
pub mod layout;

pub use dense::{DenseBitSet, DenseTable};
pub use fasthash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use layout::{ArrayDecl, ArrayId, MemLayout, Sharing};

use std::fmt;

/// Identifier of one processor (node) of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A simulation time point or duration, in processor clock cycles.
pub type Cycle = u64;

/// Runtime epoch number.
///
/// An *epoch* is the paper's unit of coherence enforcement: one parallel
/// (DOALL) loop or one serial program region. The machine-wide epoch counter
/// increments at every epoch boundary; this type is the unbounded software
/// view of that counter (the hardware truncates it to the timetag width, see
/// `tpi-cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch `n` boundaries after `self`.
    #[must_use]
    pub fn plus(self, n: u64) -> Epoch {
        Epoch(self.0 + n)
    }

    /// Number of boundaries from `earlier` to `self`, or `None` if `earlier`
    /// is actually later.
    #[must_use]
    pub fn distance_from(self, earlier: Epoch) -> Option<u64> {
        self.0.checked_sub(earlier.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Word-granular address in the flat shared address space.
///
/// The paper's machine uses 32-bit words; `WordAddr(n)` names the `n`-th word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(pub u64);

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

/// Line-granular address: `WordAddr / words_per_line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{:#x}", self.0)
    }
}

/// Bytes per machine word (the paper simulates 32-bit words).
pub const WORD_BYTES: usize = 4;

/// Cache-line geometry: how word addresses map onto lines.
///
/// Line decomposition (`line_of` / `word_in_line`) runs on every simulated
/// memory access, so the power-of-two line size is kept as a shift amount
/// and the division/modulo become shift/mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineGeometry {
    words_per_line: u32,
    /// `log2(words_per_line)`, derived in [`LineGeometry::new`].
    shift: u32,
}

impl LineGeometry {
    /// Creates a geometry with `words_per_line` words per cache line.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_line` is zero or not a power of two.
    #[must_use]
    pub fn new(words_per_line: u32) -> Self {
        assert!(
            words_per_line.is_power_of_two(),
            "words_per_line must be a nonzero power of two, got {words_per_line}"
        );
        LineGeometry {
            words_per_line,
            shift: words_per_line.trailing_zeros(),
        }
    }

    /// Words per cache line.
    #[must_use]
    pub fn words_per_line(self) -> u32 {
        self.words_per_line
    }

    /// Bytes per cache line.
    #[must_use]
    pub fn line_bytes(self) -> usize {
        self.words_per_line as usize * WORD_BYTES
    }

    /// The line containing `addr`.
    #[must_use]
    pub fn line_of(self, addr: WordAddr) -> LineAddr {
        LineAddr(addr.0 >> self.shift)
    }

    /// Offset of `addr` within its line, in words.
    #[must_use]
    pub fn word_in_line(self, addr: WordAddr) -> u32 {
        (addr.0 & u64::from(self.words_per_line - 1)) as u32
    }

    /// First word of `line`.
    #[must_use]
    pub fn first_word(self, line: LineAddr) -> WordAddr {
        WordAddr(line.0 << self.shift)
    }
}

/// Compiler annotation attached to a load, consumed by the coherence hardware.
///
/// This is the interface between the Polaris-style reference-marking pass
/// (`tpi-compiler`) and the cache/protocol models (`tpi-proto`): the compiler
/// classifies every read reference and the hardware interprets the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadKind {
    /// The compiler proved the reference can never observe stale data; the
    /// cache may satisfy it from any valid copy.
    Plain,
    /// A potentially-stale reference under the TPI scheme. The hardware
    /// treats it as a hit only if the word's timetag `t` satisfies
    /// `t >= current_epoch - distance`; `distance == 0` is the fully
    /// conservative marking (only data produced or fetched in the current
    /// epoch may be reused).
    TimeRead {
        /// Compiler-proven number of epoch boundaries since the most recent
        /// epoch in which another processor may have written the datum.
        distance: u32,
    },
    /// A potentially-stale reference under the software cache-bypass (SC)
    /// scheme: always served from memory.
    Bypass,
    /// A read inside a lock-guarded critical section. Data exchanged
    /// through critical sections is serialized by the lock, not by epoch
    /// boundaries, so timetags say nothing about its freshness: the HSCD
    /// schemes must fetch it from memory uncached (the paper's Section 5
    /// treatment), while directory schemes read it coherently as usual.
    Critical,
}

impl ReadKind {
    /// Whether the compiler marked this reference as potentially stale.
    #[must_use]
    pub fn is_marked(self) -> bool {
        !matches!(self, ReadKind::Plain)
    }
}

impl fmt::Display for ReadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadKind::Plain => write!(f, "read"),
            ReadKind::TimeRead { distance } => write!(f, "time-read(d={distance})"),
            ReadKind::Bypass => write!(f, "bypass-read"),
            ReadKind::Critical => write!(f, "critical-read"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_geometry_maps_addresses() {
        let g = LineGeometry::new(4);
        assert_eq!(g.line_of(WordAddr(0)), LineAddr(0));
        assert_eq!(g.line_of(WordAddr(3)), LineAddr(0));
        assert_eq!(g.line_of(WordAddr(4)), LineAddr(1));
        assert_eq!(g.word_in_line(WordAddr(7)), 3);
        assert_eq!(g.first_word(LineAddr(2)), WordAddr(8));
        assert_eq!(g.line_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn line_geometry_rejects_non_power_of_two() {
        let _ = LineGeometry::new(3);
    }

    #[test]
    fn epoch_distance() {
        assert_eq!(Epoch(7).distance_from(Epoch(3)), Some(4));
        assert_eq!(Epoch(3).distance_from(Epoch(7)), None);
        assert_eq!(Epoch(3).plus(2), Epoch(5));
    }

    #[test]
    fn read_kind_marking() {
        assert!(!ReadKind::Plain.is_marked());
        assert!(ReadKind::TimeRead { distance: 1 }.is_marked());
        assert!(ReadKind::Bypass.is_marked());
        assert!(ReadKind::Critical.is_marked());
        assert_eq!(ReadKind::Critical.to_string(), "critical-read");
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(ProcId(3).to_string(), "P3");
        assert_eq!(Epoch(9).to_string(), "E9");
        assert_eq!(WordAddr(16).to_string(), "w0x10");
        assert_eq!(LineAddr(4).to_string(), "l0x4");
        assert_eq!(
            ReadKind::TimeRead { distance: 2 }.to_string(),
            "time-read(d=2)"
        );
    }
}
