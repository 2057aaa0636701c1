//! Write buffers for the write-through schemes.
//!
//! TPI and SC use write-through caches (a compiler-directed scheme must get
//! writes to memory by the next epoch boundary). The paper assumes an
//! infinite write buffer so writes never stall the processor, and notes
//! (\[9\], \[10\], the DEC Alpha 21164) that *organizing the write buffer as a
//! cache* removes redundant write-throughs to the same word — this is the
//! E12 ablation. At each epoch boundary the buffer must drain (weak
//! consistency synchronization point).

use tpi_mem::{FastSet, WordAddr};

/// Write policy of the HSCD caches.
///
/// The paper's default is write-through (memory must be current by each
/// epoch boundary). Chen \[10\] discusses the alternative the TPI scheme
/// could also use — *write-back at task boundaries* — noting it "increases
/// the latency of the invalidation, and results in more bursty traffic";
/// the E18 ablation measures exactly that trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Every store is sent to memory through the write buffer.
    #[default]
    Through,
    /// Stores mark words dirty; all dirty words flush in a burst at each
    /// epoch boundary.
    BackAtBoundary,
}

impl std::fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WritePolicy::Through => write!(f, "write-through"),
            WritePolicy::BackAtBoundary => write!(f, "write-back-at-boundary"),
        }
    }
}

/// Buffer organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteBufferKind {
    /// Plain FIFO: every write-through goes to memory.
    Fifo,
    /// Organized as a cache: repeated writes to the same word within one
    /// epoch coalesce into a single memory write (Alpha-21164-style).
    Coalescing,
}

impl std::fmt::Display for WriteBufferKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteBufferKind::Fifo => write!(f, "fifo"),
            WriteBufferKind::Coalescing => write!(f, "coalescing"),
        }
    }
}

/// Cumulative write-buffer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteBufferStats {
    /// Writes accepted from the processor.
    pub enqueued: u64,
    /// Word writes actually sent to memory.
    pub sent: u64,
    /// Writes absorbed by coalescing.
    pub coalesced: u64,
}

/// An infinite write buffer (per processor).
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    kind: WriteBufferKind,
    /// Outstanding distinct words (coalescing) or outstanding count (FIFO).
    pending_set: FastSet<u64>,
    pending_count: u64,
    stats: WriteBufferStats,
}

impl WriteBuffer {
    /// An empty buffer of the given kind.
    #[must_use]
    pub fn new(kind: WriteBufferKind) -> Self {
        WriteBuffer {
            kind,
            pending_set: FastSet::default(),
            pending_count: 0,
            stats: WriteBufferStats::default(),
        }
    }

    /// Buffer organization.
    #[must_use]
    pub fn kind(&self) -> WriteBufferKind {
        self.kind
    }

    /// Accepts a write-through; returns `true` if it will reach memory (not
    /// coalesced).
    pub fn push(&mut self, addr: WordAddr) -> bool {
        self.stats.enqueued += 1;
        match self.kind {
            WriteBufferKind::Fifo => {
                self.pending_count += 1;
                true
            }
            WriteBufferKind::Coalescing => {
                if self.pending_set.insert(addr.0) {
                    self.pending_count += 1;
                    true
                } else {
                    self.stats.coalesced += 1;
                    false
                }
            }
        }
    }

    /// Words currently waiting to reach memory.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.pending_count
    }

    /// Drains the buffer (epoch boundary); returns the number of word
    /// writes that go to memory.
    pub fn drain(&mut self) -> u64 {
        let n = self.pending_count;
        self.stats.sent += n;
        self.pending_count = 0;
        self.pending_set.clear();
        n
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> WriteBufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_sends_everything() {
        let mut b = WriteBuffer::new(WriteBufferKind::Fifo);
        for _ in 0..3 {
            assert!(b.push(WordAddr(5)));
        }
        assert_eq!(b.pending(), 3);
        assert_eq!(b.drain(), 3);
        assert_eq!(
            b.stats(),
            WriteBufferStats {
                enqueued: 3,
                sent: 3,
                coalesced: 0
            }
        );
    }

    #[test]
    fn coalescing_absorbs_redundant_writes() {
        let mut b = WriteBuffer::new(WriteBufferKind::Coalescing);
        assert!(b.push(WordAddr(5)));
        assert!(!b.push(WordAddr(5)));
        assert!(b.push(WordAddr(6)));
        assert_eq!(b.pending(), 2);
        assert_eq!(b.drain(), 2);
        assert_eq!(
            b.stats(),
            WriteBufferStats {
                enqueued: 3,
                sent: 2,
                coalesced: 1
            }
        );
        // After a drain the same word writes through again.
        assert!(b.push(WordAddr(5)));
        assert_eq!(b.drain(), 1);
    }

    #[test]
    fn display_kinds() {
        assert_eq!(WriteBufferKind::Fifo.to_string(), "fifo");
        assert_eq!(WriteBufferKind::Coalescing.to_string(), "coalescing");
    }
}
