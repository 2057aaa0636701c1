//! Memory-event streams produced by the execution-driven interpreter.
//!
//! The paper instruments compiler-marked benchmarks to emit the events the
//! timing simulator consumes: shared-memory reads (with their compiler
//! annotation), writes, local compute, and epoch boundaries. A [`Trace`] is
//! the reproduction's equivalent: per-epoch, per-processor event lists plus
//! the memory layout, with a global *version* attached to every access so
//! the coherence simulators can classify misses (necessary vs. caused by
//! compiler conservatism or false sharing) and verify value freshness.

use tpi_mem::{Epoch, MemLayout, ReadKind, WordAddr};

/// One instrumented event on one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `cycles` of processor-local work (ALU, private data, control).
    Compute(u32),
    /// A shared-memory load.
    Read {
        /// Accessed word.
        addr: WordAddr,
        /// Compiler annotation (TPI view; SC derives `Bypass` from
        /// `is_marked`, directory schemes ignore it).
        kind: ReadKind,
        /// Global version of the word this read must observe (for
        /// freshness checking and miss classification).
        version: u64,
    },
    /// A shared-memory store.
    Write {
        /// Accessed word.
        addr: WordAddr,
        /// Global version of the word *after* this write.
        version: u64,
    },
    /// A store inside a lock-guarded critical section: must reach memory
    /// uncached under the HSCD schemes (Section 5).
    CriticalWrite {
        /// Accessed word.
        addr: WordAddr,
        /// Global version of the word *after* this write.
        version: u64,
    },
    /// Acquire a lock (blocking; serializes critical sections).
    AcquireLock(u32),
    /// Release a lock.
    ReleaseLock(u32),
    /// Signal element `index` of event `event` (doacross pipelining);
    /// fences this processor's earlier writes.
    PostEvent {
        /// Event variable.
        event: u32,
        /// Element index.
        index: i64,
    },
    /// Block until `PostEvent { event, index }` has executed.
    WaitEvent {
        /// Event variable.
        event: u32,
        /// Element index.
        index: i64,
    },
}

/// How an epoch executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochExecKind {
    /// Serial region: all events on one processor.
    Serial,
    /// Parallel loop with the given iteration count.
    Doall {
        /// Number of iterations executed.
        iterations: u64,
    },
}

/// All events of one epoch, split per processor.
#[derive(Debug, Clone)]
pub struct EpochEvents {
    /// Runtime epoch number.
    pub epoch: Epoch,
    /// Serial or parallel.
    pub kind: EpochExecKind,
    /// Event list per processor (index = `ProcId.0`).
    pub per_proc: Vec<Vec<Event>>,
}

impl EpochEvents {
    /// Total events in this epoch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_proc.iter().map(Vec::len).sum()
    }

    /// Whether no processor has any event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_proc.iter().all(Vec::is_empty)
    }
}

/// Aggregate counts over a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Shared reads.
    pub reads: u64,
    /// Shared reads carrying a stale-marking.
    pub marked_reads: u64,
    /// Shared writes.
    pub writes: u64,
    /// Total compute cycles.
    pub compute_cycles: u64,
    /// Number of epochs.
    pub epochs: u64,
    /// Number of DOALL epochs.
    pub parallel_epochs: u64,
    /// Total DOALL iterations executed.
    pub iterations: u64,
    /// Writes performed inside critical sections.
    pub critical_writes: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Event posts (doacross synchronization).
    pub posts: u64,
}

/// Host-side (wall-clock) self-measurement of one interpreter run, fed
/// into the `tpi-prof` stage profiler by the experiment engine.
///
/// These describe the *interpreter program*, not the simulated machine,
/// and are excluded from every determinism comparison ([`TraceStats`]
/// stays `Eq`-comparable; this struct is not part of it).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpHostProfile {
    /// Host nanoseconds interpreting serial epochs.
    pub serial_nanos: u64,
    /// Host nanoseconds interpreting DOALL epochs (including scheduling).
    pub doall_nanos: u64,
}

/// A complete execution trace of one program run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-epoch event lists.
    pub epochs: Vec<EpochEvents>,
    /// Array placement used to generate addresses.
    pub layout: MemLayout,
    /// Number of processors the trace was generated for.
    pub num_procs: u32,
    /// Aggregate counts.
    pub stats: TraceStats,
    /// Host-side wall-clock self-measurement of the interpreter (profiling
    /// only; never part of any determinism comparison).
    pub host: InterpHostProfile,
}

impl TraceStats {
    /// Counts one event.
    #[inline]
    pub(crate) fn count(&mut self, ev: &Event) {
        match ev {
            Event::Compute(c) => self.compute_cycles += u64::from(*c),
            Event::Read { kind, .. } => {
                self.reads += 1;
                if kind.is_marked() {
                    self.marked_reads += 1;
                }
            }
            Event::Write { .. } => self.writes += 1,
            Event::CriticalWrite { .. } => {
                self.writes += 1;
                self.critical_writes += 1;
            }
            Event::AcquireLock(_) => self.lock_acquires += 1,
            Event::ReleaseLock(_) => {}
            Event::PostEvent { .. } => self.posts += 1,
            Event::WaitEvent { .. } => {}
        }
    }

    /// Counts one epoch (its events are counted one by one).
    pub(crate) fn count_epoch(&mut self, kind: EpochExecKind) {
        self.epochs += 1;
        if let EpochExecKind::Doall { iterations } = kind {
            self.parallel_epochs += 1;
            self.iterations += iterations;
        }
    }
}

impl Trace {
    /// Recomputes aggregate statistics from the event lists. The interpreter
    /// counts the same statistics while it emits the events.
    #[must_use]
    pub fn compute_stats(epochs: &[EpochEvents]) -> TraceStats {
        let mut s = TraceStats::default();
        for e in epochs {
            s.count_epoch(e.kind);
            for ev in e.per_proc.iter().flatten() {
                s.count(ev);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_mem::{ArrayDecl, LineGeometry, Sharing};

    #[test]
    fn stats_roll_up() {
        let epochs = vec![
            EpochEvents {
                epoch: Epoch(0),
                kind: EpochExecKind::Serial,
                per_proc: vec![
                    vec![
                        Event::Compute(5),
                        Event::Write {
                            addr: WordAddr(0),
                            version: 1,
                        },
                    ],
                    vec![],
                ],
            },
            EpochEvents {
                epoch: Epoch(1),
                kind: EpochExecKind::Doall { iterations: 8 },
                per_proc: vec![
                    vec![Event::Read {
                        addr: WordAddr(0),
                        kind: ReadKind::TimeRead { distance: 1 },
                        version: 1,
                    }],
                    vec![Event::Read {
                        addr: WordAddr(1),
                        kind: ReadKind::Plain,
                        version: 0,
                    }],
                ],
            },
        ];
        let s = Trace::compute_stats(&epochs);
        assert_eq!(s.reads, 2);
        assert_eq!(s.marked_reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.compute_cycles, 5);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.parallel_epochs, 1);
        assert_eq!(s.iterations, 8);
        assert_eq!(epochs[0].len(), 2);
        assert!(!epochs[0].is_empty());
        let _layout = MemLayout::new(
            vec![ArrayDecl::new("A", vec![4], Sharing::Shared)],
            LineGeometry::new(4),
        );
    }
}
