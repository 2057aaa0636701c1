//! A deterministic, zero-dependency fast hasher for simulator hot paths.
//!
//! The simulator's inner loops key hash maps by small dense-ish integers
//! (word addresses, line addresses, version numbers). The standard library's
//! default `SipHash-1-3` is DoS-resistant but costs tens of cycles per
//! lookup, which is pure overhead here: every key is produced by the
//! simulator itself, never by an adversary. This module provides a
//! multiply-xor hasher in the spirit of `FxHash` (the rustc hasher) with two
//! properties the simulator needs:
//!
//! * **fast** — one wrapping multiply and one xor-rotate per 8-byte chunk;
//! * **deterministic** — no per-process random seed, so iteration-free uses
//!   of [`FastMap`] behave identically across runs and hosts (the repo's
//!   reproducibility tests compare simulator output byte-for-byte).
//!
//! Nothing here changes *observable* simulation results: maps are only read
//! by key, never iterated in result-affecting order.
//!
//! The coherence engines no longer key their long-lived state by hash:
//! memory versions, directories, sharer sets and per-processor line sets
//! live in the dense, address-indexed tables of [`crate::dense`], which a
//! lookup reaches without hashing. Hash maps remain where keys are sparse
//! or short-lived:
//!
//! * the per-epoch pending-version maps of the HSCD engines, cleared at
//!   every barrier, hold only the words written in one epoch;
//! * the coalescing write buffer's set of pending words, also cleared at
//!   every barrier;
//! * the trace interpreter's post table (which iteration posted each
//!   doacross event), cleared at every epoch and touched only by loops
//!   that post. The interpreter's per-word versions and race state are not
//!   hashed: they share one [`crate::DenseTable`] of 20-byte records over
//!   the words a trace touches (under 1 MB for the paper-scale kernels,
//!   40 MiB for OCEAN-large and 60 MiB for ARC2D-large on 1,024
//!   processors), which lives only while a trace is generated. That costs
//!   more memory than maps of the touched words, but saves two hash probes
//!   per shared access, and the experiment service holds traces, not
//!   interpreters;
//! * the compiler's marking decisions (keyed by reference site) and the
//!   model checker's stepper state.
//!
//! # Example
//!
//! ```
//! use tpi_mem::{FastMap, Version};
//!
//! let mut versions: FastMap<u64, Version> = FastMap::default();
//! versions.insert(0x40, 3);
//! assert_eq!(versions.get(&0x40), Some(&3));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the `FxHash` family (derived from the golden ratio);
/// chosen so every input bit influences the high output bits after the
/// final multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher.
///
/// See the [module docs](self) for when this is appropriate: simulator
/// internal keys only, never attacker-controlled input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add_chunk(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_chunk(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Mix in the length so "ab" and "ab\0" differ.
            self.add_chunk(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_chunk(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_chunk(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_chunk(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_chunk(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; usable anywhere
/// `HashMap::with_hasher` is.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by the deterministic [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed by the deterministic [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FastHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let b1 = FastBuildHasher::default();
        let b2 = FastBuildHasher::default();
        for k in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            assert_eq!(b1.hash_one(k), b2.hash_one(k));
        }
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let b = FastBuildHasher::default();
        assert_ne!(b.hash_one(1u64), b.hash_one(2u64));
        assert_ne!(b.hash_one(0u64), b.hash_one(1u64 << 32));
    }

    #[test]
    fn tail_bytes_and_length_matter() {
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b"abcdefgh"), hash_of(b"abcdefg"));
        assert_ne!(hash_of(b""), hash_of(b"\0"));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        let mut s: FastSet<(u32, i64)> = FastSet::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
            s.insert((i as u32, -(i as i64)));
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 7)), Some(&(i as u32)));
            assert!(s.contains(&(i as u32, -(i as i64))));
        }
        assert!(!s.contains(&(1, 1)));
    }
}
