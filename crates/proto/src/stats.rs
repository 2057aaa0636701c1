//! Per-processor and aggregate protocol statistics.
//!
//! The paper's evaluation reports miss rates (Figure 11), a breakdown of
//! misses into necessary and unnecessary ones (true sharing vs. false
//! sharing for the directory scheme, compiler conservatism for the HSCD
//! schemes), average miss latencies, and network traffic. These counters
//! are the raw material for all of those tables.

use tpi_mem::{Cycle, DenseBitSet};

/// Why a read had to go to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First access to the line by this processor.
    Cold,
    /// Line was previously cached but evicted for capacity/conflict.
    Replacement,
    /// Word was dropped by a timetag phase reset (TPI only).
    Reset,
    /// Necessary coherence miss: the word's value really changed.
    CoherenceTrue,
    /// Unnecessary invalidation miss caused by false sharing (directory
    /// schemes, classified per Tullsen–Eggers \[34\]).
    FalseSharing,
    /// Unnecessary miss caused by compiler conservatism: the check failed
    /// or the reference bypassed the cache although the cached copy was
    /// still current (HSCD schemes).
    Conservative,
    /// Remote access to data the scheme never caches (BASE).
    Uncached,
    /// The cached copy's read lease expired and the refetch found the word
    /// unchanged (Tardis-style timestamp coherence): an unnecessary miss
    /// that renews the lease.
    LeaseRenewal,
}

impl MissClass {
    /// All classes, for iteration and table rendering.
    pub const ALL: [MissClass; 8] = [
        MissClass::Cold,
        MissClass::Replacement,
        MissClass::Reset,
        MissClass::CoherenceTrue,
        MissClass::FalseSharing,
        MissClass::Conservative,
        MissClass::Uncached,
        MissClass::LeaseRenewal,
    ];

    /// Dense index for counters.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MissClass::Cold => 0,
            MissClass::Replacement => 1,
            MissClass::Reset => 2,
            MissClass::CoherenceTrue => 3,
            MissClass::FalseSharing => 4,
            MissClass::Conservative => 5,
            MissClass::Uncached => 6,
            MissClass::LeaseRenewal => 7,
        }
    }

    /// Whether the miss was unnecessary (avoidable with perfect
    /// information): the paper's central comparison.
    #[must_use]
    pub fn is_unnecessary(self) -> bool {
        matches!(
            self,
            MissClass::FalseSharing | MissClass::Conservative | MissClass::LeaseRenewal
        )
    }
}

impl std::fmt::Display for MissClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissClass::Cold => write!(f, "cold"),
            MissClass::Replacement => write!(f, "replacement"),
            MissClass::Reset => write!(f, "tag-reset"),
            MissClass::CoherenceTrue => write!(f, "true-sharing"),
            MissClass::FalseSharing => write!(f, "false-sharing"),
            MissClass::Conservative => write!(f, "conservative"),
            MissClass::Uncached => write!(f, "uncached"),
            MissClass::LeaseRenewal => write!(f, "lease-renewal"),
        }
    }
}

/// Counters for one processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Read accesses issued.
    pub reads: u64,
    /// Reads satisfied by the cache.
    pub read_hits: u64,
    /// Read misses per class.
    pub miss_by_class: [u64; 8],
    /// Sum of read-miss latencies (for average miss latency).
    pub miss_latency_sum: Cycle,
    /// Write accesses issued.
    pub writes: u64,
    /// Writes that missed (write-allocate / write-back protocols).
    pub write_misses: u64,
    /// Upgrade (shared -> exclusive) transactions issued.
    pub upgrades: u64,
    /// Invalidations received from the directory.
    pub invals_received: u64,
    /// Lines written back to memory.
    pub write_backs: u64,
    /// Words invalidated by timetag resets.
    pub reset_words: u64,
    /// LimitLess software traps taken at the home of lines this processor
    /// accessed.
    pub traps: u64,
}

impl ProcStats {
    /// Total read misses.
    #[must_use]
    pub fn read_misses(&self) -> u64 {
        self.miss_by_class.iter().sum()
    }

    /// Read miss count in `class`.
    #[must_use]
    pub fn misses(&self, class: MissClass) -> u64 {
        self.miss_by_class[class.index()]
    }

    /// Read miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses() as f64 / self.reads as f64
        }
    }

    /// Average read-miss latency in cycles.
    #[must_use]
    pub fn avg_miss_latency(&self) -> f64 {
        let m = self.read_misses();
        if m == 0 {
            0.0
        } else {
            self.miss_latency_sum as f64 / m as f64
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &ProcStats) {
        self.reads += other.reads;
        self.read_hits += other.read_hits;
        for i in 0..self.miss_by_class.len() {
            self.miss_by_class[i] += other.miss_by_class[i];
        }
        self.miss_latency_sum += other.miss_latency_sum;
        self.writes += other.writes;
        self.write_misses += other.write_misses;
        self.upgrades += other.upgrades;
        self.invals_received += other.invals_received;
        self.write_backs += other.write_backs;
        self.reset_words += other.reset_words;
        self.traps += other.traps;
    }

    pub(crate) fn record_miss(&mut self, class: MissClass, latency: Cycle) {
        self.miss_by_class[class.index()] += 1;
        self.miss_latency_sum += latency;
    }
}

/// Statistics for a whole engine: one [`ProcStats`] per processor.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    per_proc: Vec<ProcStats>,
}

impl EngineStats {
    /// Zeroed stats for `procs` processors.
    #[must_use]
    pub fn new(procs: u32) -> Self {
        EngineStats {
            per_proc: vec![ProcStats::default(); procs as usize],
        }
    }

    /// Stats of one processor.
    #[must_use]
    pub fn proc(&self, p: usize) -> &ProcStats {
        &self.per_proc[p]
    }

    pub(crate) fn proc_mut(&mut self, p: usize) -> &mut ProcStats {
        &mut self.per_proc[p]
    }

    /// All per-processor stats.
    #[must_use]
    pub fn per_proc(&self) -> &[ProcStats] {
        &self.per_proc
    }

    /// Sum over all processors.
    #[must_use]
    pub fn aggregate(&self) -> ProcStats {
        let mut total = ProcStats::default();
        for s in &self.per_proc {
            total.merge(s);
        }
        total
    }
}

/// Classifications waiting for a processor's next miss on each line it
/// lost to an invalidation (Tullsen–Eggers): [`MissClass::CoherenceTrue`]
/// or [`MissClass::FalseSharing`]. Two bits per line, in bit sets: the
/// invalidated lines of one processor can be sparse across the whole
/// address range (a column sweep loses one line per row), and a bit set
/// pays 512 bytes per 4,096 lines of range where a byte per line would
/// pay 4 KB.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingMisses {
    pending: DenseBitSet,
    false_sharing: DenseBitSet,
}

impl PendingMisses {
    /// Records that the next miss on line `la` is of class `class`.
    pub(crate) fn set(&mut self, la: u64, class: MissClass) {
        debug_assert!(matches!(
            class,
            MissClass::CoherenceTrue | MissClass::FalseSharing
        ));
        self.pending.insert(la);
        if class == MissClass::FalseSharing {
            self.false_sharing.insert(la);
        } else {
            self.false_sharing.remove(la);
        }
    }

    /// Takes the class waiting for line `la`, if any.
    pub(crate) fn take(&mut self, la: u64) -> Option<MissClass> {
        if !self.pending.remove(la) {
            return None;
        }
        Some(if self.false_sharing.remove(la) {
            MissClass::FalseSharing
        } else {
            MissClass::CoherenceTrue
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; 8];
        for c in MissClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn unnecessary_classification() {
        assert!(MissClass::FalseSharing.is_unnecessary());
        assert!(MissClass::Conservative.is_unnecessary());
        assert!(MissClass::LeaseRenewal.is_unnecessary());
        assert!(!MissClass::CoherenceTrue.is_unnecessary());
        assert!(!MissClass::Cold.is_unnecessary());
    }

    #[test]
    fn rates_and_averages() {
        let mut s = ProcStats {
            reads: 10,
            read_hits: 8,
            ..ProcStats::default()
        };
        s.record_miss(MissClass::Cold, 100);
        s.record_miss(MissClass::CoherenceTrue, 200);
        assert_eq!(s.read_misses(), 2);
        assert!((s.miss_rate() - 0.2).abs() < 1e-12);
        assert!((s.avg_miss_latency() - 150.0).abs() < 1e-12);
        assert_eq!(s.misses(MissClass::Cold), 1);
    }

    #[test]
    fn merge_and_aggregate() {
        let mut es = EngineStats::new(2);
        es.proc_mut(0).reads = 5;
        es.proc_mut(0).record_miss(MissClass::Cold, 50);
        es.proc_mut(1).reads = 7;
        es.proc_mut(1).record_miss(MissClass::Conservative, 70);
        let agg = es.aggregate();
        assert_eq!(agg.reads, 12);
        assert_eq!(agg.read_misses(), 2);
        assert_eq!(agg.miss_latency_sum, 120);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = ProcStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.avg_miss_latency(), 0.0);
    }
}
