//! The dynamic staleness oracle: replay a trace against a worst-case
//! cache model and flag every read the marking would allow to observe
//! stale data.
//!
//! # Model
//!
//! The oracle tracks, per `(processor, word)`, the *most dangerous* copy a
//! real cache could still hold: caches are assumed infinite (nothing is
//! ever evicted) and verified hits are assumed to re-stamp their timetag
//! (the engine default). After every non-violating access the copy is
//! exactly `(version the access observed, current epoch)`; a real finite
//! cache can only hold a subset of these copies, and any refetch only
//! makes a copy fresher — so a marking with zero violations here has zero
//! stale observations under *every* cache geometry.
//!
//! A **soundness violation** is:
//!
//! * a `Plain` read whose resident copy is older than the version the
//!   execution requires (the hardware would hit the stale copy), or
//! * a Time-Read of distance `d` whose resident copy is stale *and*
//!   stamped within the last `d` epochs (the timetag check would pass).
//!
//! The oracle also measures **precision**: marked reads whose copy was
//! absent or already fresh never needed the marking.
//!
//! Critical-section accesses are uncached under the HSCD schemes: a
//! critical read checks nothing, and a critical write invalidates the
//! writer's own copy.

use crate::diag::{Code, Diagnostic, Severity};
use std::collections::HashMap;
use tpi_mem::{Epoch, ProcId, ReadKind, Version, WordAddr};
use tpi_trace::{Event, GroundTruth, Trace, Writer};

/// Which scheme's read semantics the oracle replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// Time-Reads hit iff the word's timetag age is within the distance.
    Tpi,
    /// Marked reads always bypass the cache (software cache-bypass).
    Sc,
}

impl OracleMode {
    /// Lower-case label (`"tpi"` / `"sc"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OracleMode::Tpi => "tpi",
            OracleMode::Sc => "sc",
        }
    }

    /// Parses a label produced by [`label`](Self::label).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tpi" => Some(OracleMode::Tpi),
            "sc" => Some(OracleMode::Sc),
            _ => None,
        }
    }
}

/// One soundness violation: a read the marking lets observe stale data.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scheme semantics under which the read is unsound.
    pub mode: OracleMode,
    /// Reading processor.
    pub proc: ProcId,
    /// Accessed word.
    pub addr: WordAddr,
    /// Epoch the read executes in.
    pub epoch: Epoch,
    /// The read's marking.
    pub kind: ReadKind,
    /// Version the execution requires the read to observe.
    pub required_version: Version,
    /// Stale version the resident copy holds.
    pub copy_version: Version,
    /// Epoch the stale copy was last stamped in.
    pub copy_epoch: Epoch,
    /// Ground-truth writer of the required version, when the trace
    /// contains that store (version 0 is initial memory).
    pub writer: Option<Writer>,
}

impl Violation {
    /// Renders the violation as a `TPI900` diagnostic.
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        let kind = match self.kind {
            ReadKind::Plain => "plain".to_string(),
            ReadKind::TimeRead { distance } => format!("time-read(d={distance})"),
            ReadKind::Bypass => "bypass".to_string(),
            ReadKind::Critical => "critical".to_string(),
        };
        let mut d = Diagnostic::new(
            Code::Tpi900,
            Severity::Error,
            format!(
                "{} read may observe version {} instead of {}",
                kind, self.copy_version, self.required_version
            ),
        )
        .with("mode", self.mode.label())
        .with("proc", self.proc.0)
        .with("addr", self.addr.0)
        .with("epoch", self.epoch.0)
        .with("copy_epoch", self.copy_epoch.0);
        if let Some(w) = self.writer {
            d = d
                .with("writer_proc", w.proc.0)
                .with("writer_epoch", w.epoch.0);
        }
        d
    }
}

/// Dynamic counts gathered during a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total read events.
    pub reads: u64,
    /// Plain reads.
    pub plain_reads: u64,
    /// Marked (Time-Read / bypass) reads.
    pub marked_reads: u64,
    /// Critical-section reads (uncached; never checked).
    pub critical_reads: u64,
    /// Marked reads whose resident copy really was stale: the marking
    /// was necessary.
    pub needed_marked: u64,
    /// Marked reads whose copy was absent or fresh: marking precision
    /// lost (the paper's "unnecessary cache misses").
    pub unneeded_marked: u64,
    /// Write events (critical ones counted separately too).
    pub writes: u64,
    /// Critical-section writes.
    pub critical_writes: u64,
}

/// The oracle's verdict for one trace replay.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Replayed semantics.
    pub mode: OracleMode,
    /// Dynamic counts.
    pub stats: OracleStats,
    /// Every soundness violation, in trace order.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// Whether the replay observed no violation.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fraction of marked reads that never needed marking (0 when there
    /// are no marked reads).
    #[must_use]
    pub fn unneeded_fraction(&self) -> f64 {
        if self.stats.marked_reads == 0 {
            0.0
        } else {
            self.stats.unneeded_marked as f64 / self.stats.marked_reads as f64
        }
    }
}

/// The worst-case resident copy of one word on one processor.
#[derive(Debug, Clone, Copy)]
struct CopyState {
    version: Version,
    stamp: Epoch,
}

/// Replays `trace` under `mode` and reports every soundness violation
/// plus precision statistics. See the [module docs](self) for the model.
#[must_use]
pub fn check_trace(trace: &Trace, mode: OracleMode) -> OracleReport {
    let truth = GroundTruth::of_trace(trace);
    let mut copies: HashMap<(u32, u64), CopyState> = HashMap::new();
    let mut stats = OracleStats::default();
    let mut violations = Vec::new();

    for ee in &trace.epochs {
        let epoch = ee.epoch;
        for (p, events) in ee.per_proc.iter().enumerate() {
            let proc = ProcId(p as u32);
            for ev in events {
                match ev {
                    Event::Read {
                        addr,
                        kind,
                        version,
                    } => {
                        stats.reads += 1;
                        let key = (proc.0, addr.0);
                        let copy = copies.get(&key).copied();
                        let stale = copy.is_some_and(|c| c.version < *version);
                        match kind {
                            ReadKind::Critical => {
                                // Uncached fetch: no cache state touched.
                                stats.critical_reads += 1;
                                continue;
                            }
                            ReadKind::Plain => {
                                stats.plain_reads += 1;
                                if let Some(c) = copy {
                                    if stale {
                                        violations.push(Violation {
                                            mode,
                                            proc,
                                            addr: *addr,
                                            epoch,
                                            kind: *kind,
                                            required_version: *version,
                                            copy_version: c.version,
                                            copy_epoch: c.stamp,
                                            writer: truth.writer(*addr, *version),
                                        });
                                    }
                                }
                            }
                            ReadKind::TimeRead { .. } | ReadKind::Bypass => {
                                stats.marked_reads += 1;
                                if stale {
                                    stats.needed_marked += 1;
                                } else {
                                    stats.unneeded_marked += 1;
                                }
                                // Under SC semantics a marked read always
                                // refetches from memory: never unsound.
                                // Under TPI semantics the timetag check
                                // may wrongly admit the stale copy.
                                if mode == OracleMode::Tpi && stale {
                                    let c = copy.expect("stale implies resident");
                                    let distance = match kind {
                                        ReadKind::TimeRead { distance } => u64::from(*distance),
                                        _ => 0, // Bypass behaves as distance 0
                                    };
                                    let age = epoch
                                        .distance_from(c.stamp)
                                        .expect("copies are stamped in the past");
                                    if age <= distance {
                                        violations.push(Violation {
                                            mode,
                                            proc,
                                            addr: *addr,
                                            epoch,
                                            kind: *kind,
                                            required_version: *version,
                                            copy_version: c.version,
                                            copy_epoch: c.stamp,
                                            writer: truth.writer(*addr, *version),
                                        });
                                    }
                                }
                            }
                        }
                        // The access leaves a copy of exactly the version
                        // it observed, stamped in this epoch.
                        copies.insert(
                            key,
                            CopyState {
                                version: *version,
                                stamp: epoch,
                            },
                        );
                    }
                    Event::Write { addr, version } => {
                        stats.writes += 1;
                        // Write-through with write-allocate: the writer's
                        // copy becomes the new version, stamped now.
                        copies.insert(
                            (proc.0, addr.0),
                            CopyState {
                                version: *version,
                                stamp: epoch,
                            },
                        );
                    }
                    Event::CriticalWrite { addr, .. } => {
                        stats.writes += 1;
                        stats.critical_writes += 1;
                        // Uncached store: the engine invalidates the
                        // writer's own copy.
                        copies.remove(&(proc.0, addr.0));
                    }
                    _ => {}
                }
            }
        }
    }

    OracleReport {
        mode,
        stats,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions, MarkDecision, MarkReason};
    use tpi_ir::{subs, ProgramBuilder};
    use tpi_trace::{generate_trace, TraceOptions};

    /// epoch 0: every task caches its neighbour's word (version 0);
    /// epoch 1: the neighbour's owner overwrites it (version 1);
    /// epoch 2: the original task re-reads it. Block-boundary tasks then
    /// hold a genuinely stale copy, so the compiler must mark the epoch-2
    /// read (distance 1) for the replay to be sound.
    fn neighbour_reuse() -> tpi_ir::Program {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [65]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i + 1])], 1));
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i + 1])], 1));
        });
        p.finish(main).expect("valid")
    }

    #[test]
    fn sound_marking_has_no_violations() {
        let prog = neighbour_reuse();
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        for mode in [OracleMode::Tpi, OracleMode::Sc] {
            let report = check_trace(&trace, mode);
            assert!(report.is_sound(), "{mode:?}: {:?}", report.violations);
            assert!(report.stats.marked_reads > 0);
        }
    }

    #[test]
    fn unmarking_a_stale_read_is_caught() {
        let prog = neighbour_reuse();
        let mut marking = mark_program(&prog, &CompilerOptions::default());
        // Weaken the marked epoch-2 read to Plain.
        let (site, _) = marking
            .sites()
            .find(|(_, d)| d.stale)
            .map(|(s, d)| (s, *d))
            .expect("epoch-2 read is marked");
        marking.set_decision(site, MarkDecision::plain(MarkReason::NoWriter));
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        let report = check_trace(&trace, OracleMode::Tpi);
        assert!(!report.is_sound(), "weakened marking must be caught");
        let v = &report.violations[0];
        assert_eq!(v.kind, ReadKind::Plain);
        let w = v.writer.expect("writer recorded");
        assert_ne!(w.proc, v.proc, "stale data came from another processor");
        // The diagnostic form carries the forensic context.
        let d = v.diagnostic();
        assert_eq!(d.code, Code::Tpi900);
        assert!(d.human().contains("writer_proc"));
    }

    #[test]
    fn growing_a_distance_is_caught_and_shrinking_is_not() {
        let prog = neighbour_reuse();
        let sound = mark_program(&prog, &CompilerOptions::default());
        let (site, d) = sound
            .sites()
            .find(|(_, d)| d.stale)
            .map(|(s, d)| (s, *d))
            .expect("epoch-2 read is marked");
        assert_eq!(d.distance, 1);

        // Too-large distance admits the stale epoch-0 copy.
        let mut grown = sound.clone();
        grown.set_decision(site, MarkDecision::stale(d.distance + 1, d.reason));
        let trace = generate_trace(&prog, &grown, &TraceOptions::default()).unwrap();
        let report = check_trace(&trace, OracleMode::Tpi);
        assert!(!report.is_sound(), "distance 2 reaches the stale copy");
        assert!(matches!(
            report.violations[0].kind,
            ReadKind::TimeRead { distance: 2 }
        ));
        // But SC semantics (bypass) are immune to the bad distance.
        assert!(check_trace(&trace, OracleMode::Sc).is_sound());

        // Distance 0 (stricter than computed) stays sound.
        let mut shrunk = sound.clone();
        shrunk.set_decision(site, MarkDecision::stale(0, d.reason));
        let trace = generate_trace(&prog, &shrunk, &TraceOptions::default()).unwrap();
        assert!(check_trace(&trace, OracleMode::Tpi).is_sound());
    }

    #[test]
    fn sc_mode_measures_necessity() {
        let prog = neighbour_reuse();
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        let report = check_trace(&trace, OracleMode::Sc);
        assert!(report.is_sound());
        assert!(
            report.stats.needed_marked > 0,
            "block-boundary tasks hold stale copies"
        );
        assert!(
            report.stats.unneeded_marked > 0,
            "interior tasks refetch their own fresh data"
        );
        assert!(report.unneeded_fraction() > 0.0 && report.unneeded_fraction() < 1.0);
    }
}
