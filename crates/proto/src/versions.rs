//! The epoch-committed memory version table shared by the HSCD engines.
//!
//! The simulator attaches a global *version* to every word so engines can
//! classify misses and verify freshness. TPI and SC model memory's view of
//! those versions with this table, under the same visibility discipline as
//! the data itself: a store retires into the writer's (infinite) write
//! buffer and is guaranteed globally visible only once the buffer drains
//! at the epoch barrier. Accordingly, a version written in epoch `E`
//! becomes visible to *other* processors' line fills at the `E`/`E+1`
//! boundary, while the writing processor always sees its own pending
//! stores (store-to-load forwarding from its buffer).
//!
//! Because the table advances only at barriers, every mid-epoch lookup is
//! a pure function of per-processor state plus epoch-start global state —
//! the invariant behind TPI's and SC's
//! `CoherenceEngine::order_insensitive` claim, which lets the simulator
//! replay each processor's stream of a sync-free epoch straight through
//! (see `tpi-sim`'s `replay` module and DESIGN.md "Replay core").
//! Versions only grow, so the boundary commit is a max-merge: commutative
//! and idempotent, independent of iteration order.
//!
//! The committed table lives for the whole run and is read on every line
//! fill, so it is a dense, address-indexed [`DenseTable`]. The pending
//! maps hold one epoch's stores and are cleared at every barrier, so they
//! stay small hash maps.

use tpi_mem::{DenseTable, FastMap, Version, WordAddr};

/// Per-word memory versions with epoch-boundary commit.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochVersions {
    /// Versions visible to every processor (committed at barriers).
    committed: DenseTable<Version>,
    /// Versions written this epoch, visible only to the writing
    /// processor until the boundary (its write buffer's contents).
    pending: Vec<FastMap<u64, Version>>,
}

impl EpochVersions {
    /// An empty table for `procs` processors.
    pub(crate) fn new(procs: u32) -> Self {
        EpochVersions {
            committed: DenseTable::default(),
            pending: vec![FastMap::default(); procs as usize],
        }
    }

    /// The version of `addr` as processor `p` observes it: memory's
    /// committed copy, or `p`'s own pending store if newer.
    pub(crate) fn read(&self, p: usize, addr: WordAddr) -> Version {
        let committed = self.committed.get(addr.0);
        if self.pending[p].is_empty() {
            return committed;
        }
        let own = self.pending[p].get(&addr.0).copied().unwrap_or(0);
        committed.max(own)
    }

    /// Records a store of `version` to `addr` by processor `p`. Versions
    /// grow monotonically per word; critical writes may be replayed out
    /// of their true order, so the buffer keeps the max.
    pub(crate) fn bump(&mut self, p: usize, addr: WordAddr, version: Version) {
        let e = self.pending[p].entry(addr.0).or_insert(0);
        *e = (*e).max(version);
    }

    /// Epoch barrier: drains every processor's pending versions into the
    /// committed table. Max-merge, so the fold order cannot matter.
    pub(crate) fn commit_boundary(&mut self) {
        for pend in &mut self.pending {
            if pend.is_empty() {
                continue;
            }
            for (&addr, &version) in pend.iter() {
                let e = self.committed.get_mut(addr);
                *e = (*e).max(version);
            }
            pend.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_sees_own_pending_others_wait_for_boundary() {
        let mut v = EpochVersions::new(2);
        v.bump(0, WordAddr(8), 3);
        assert_eq!(v.read(0, WordAddr(8)), 3, "own store forwards");
        assert_eq!(v.read(1, WordAddr(8)), 0, "visible only after drain");
        v.commit_boundary();
        assert_eq!(v.read(1, WordAddr(8)), 3);
        assert_eq!(v.read(0, WordAddr(8)), 3);
    }

    #[test]
    fn versions_never_move_backwards() {
        let mut v = EpochVersions::new(1);
        v.bump(0, WordAddr(8), 5);
        v.bump(0, WordAddr(8), 2);
        assert_eq!(v.read(0, WordAddr(8)), 5);
        v.commit_boundary();
        v.bump(0, WordAddr(8), 1);
        assert_eq!(v.read(0, WordAddr(8)), 5);
    }
}
