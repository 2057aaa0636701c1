//! Per-word ground truth recovered from a trace: who wrote each version.
//!
//! Every [`Event::Write`]/[`Event::CriticalWrite`] in a trace carries the
//! global version the word holds *after* the store, and the epoch/processor
//! of the store are positional (which [`crate::EpochEvents`] and which `per_proc`
//! lane it sits in). Scanning the trace therefore recovers, for every
//! `(word, version)` pair, the runtime epoch and processor that produced
//! it — the "last writer" oracle the analysis layer replays markings
//! against. No extra instrumentation of the interpreter is required.

use crate::event::{Event, Trace};
use std::collections::HashMap;
use tpi_mem::{Epoch, ProcId, Version, WordAddr};

/// Provenance of one written word version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writer {
    /// Runtime epoch the store executed in.
    pub epoch: Epoch,
    /// Processor that executed the store.
    pub proc: ProcId,
    /// Whether the store was a critical-section (uncached) write.
    pub critical: bool,
}

/// Ground truth for a whole trace: `(word, version) -> writer`.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    writers: HashMap<(WordAddr, Version), Writer>,
}

impl GroundTruth {
    /// Scans `trace` and records the writer of every word version.
    #[must_use]
    pub fn of_trace(trace: &Trace) -> Self {
        let mut writers = HashMap::new();
        for ee in &trace.epochs {
            for (p, events) in ee.per_proc.iter().enumerate() {
                let proc = ProcId(p as u32);
                for ev in events {
                    let (addr, version, critical) = match ev {
                        Event::Write { addr, version } => (*addr, *version, false),
                        Event::CriticalWrite { addr, version } => (*addr, *version, true),
                        _ => continue,
                    };
                    writers.insert(
                        (addr, version),
                        Writer {
                            epoch: ee.epoch,
                            proc,
                            critical,
                        },
                    );
                }
            }
        }
        GroundTruth { writers }
    }

    /// The writer of `(addr, version)`, if the trace contains that store.
    ///
    /// Version 0 (initial memory contents) has no writer.
    #[must_use]
    pub fn writer(&self, addr: WordAddr, version: Version) -> Option<Writer> {
        self.writers.get(&(addr, version)).copied()
    }

    /// Number of recorded stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.writers.len()
    }

    /// Whether the trace contained no shared stores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EpochEvents, EpochExecKind};
    use tpi_mem::{ArrayDecl, LineGeometry, MemLayout, ReadKind, Sharing};

    #[test]
    fn recovers_writers_by_position() {
        let epochs = vec![
            EpochEvents {
                epoch: Epoch(0),
                kind: EpochExecKind::Doall { iterations: 2 },
                per_proc: vec![
                    vec![Event::Write {
                        addr: WordAddr(0),
                        version: 1,
                    }],
                    vec![Event::CriticalWrite {
                        addr: WordAddr(1),
                        version: 1,
                    }],
                ],
            },
            EpochEvents {
                epoch: Epoch(1),
                kind: EpochExecKind::Serial,
                per_proc: vec![
                    vec![
                        Event::Read {
                            addr: WordAddr(0),
                            kind: ReadKind::Plain,
                            version: 1,
                        },
                        Event::Write {
                            addr: WordAddr(0),
                            version: 2,
                        },
                    ],
                    vec![],
                ],
            },
        ];
        let stats = Trace::compute_stats(&epochs);
        let trace = Trace {
            epochs,
            layout: MemLayout::new(
                vec![ArrayDecl::new("A", vec![4], Sharing::Shared)],
                LineGeometry::new(4),
            ),
            num_procs: 2,
            stats,
            host: Default::default(),
        };
        let truth = GroundTruth::of_trace(&trace);
        assert_eq!(truth.len(), 3);
        assert!(!truth.is_empty());
        let w = truth.writer(WordAddr(0), 1).unwrap();
        assert_eq!(w.epoch, Epoch(0));
        assert_eq!(w.proc, ProcId(0));
        assert!(!w.critical);
        let c = truth.writer(WordAddr(1), 1).unwrap();
        assert_eq!(c.proc, ProcId(1));
        assert!(c.critical);
        let w2 = truth.writer(WordAddr(0), 2).unwrap();
        assert_eq!(w2.epoch, Epoch(1));
        assert!(truth.writer(WordAddr(0), 0).is_none(), "initial contents");
    }
}
