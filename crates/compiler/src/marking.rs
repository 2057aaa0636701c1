//! Reference marking: the paper's core compiler algorithm.
//!
//! For every read of a shared array the compiler decides whether the
//! reference is *potentially stale* — i.e. whether the accessed data may
//! have been written by another processor in an earlier epoch — and, for the
//! TPI scheme, how far back the nearest possible writer is. The decision
//! procedure is:
//!
//! 1. **Task-local coverage.** If an earlier access in the same task
//!    (same serial epoch, or same DOALL iteration) provably touches the same
//!    element, the read can never be stale: mark `Plain`.
//! 2. **Same-epoch conflicts.** In a DOALL epoch, a write by a *different
//!    iteration* that may touch the read's section forces the fully
//!    conservative distance 0 (only data produced or fetched in the current
//!    epoch may be reused). Serial-epoch writes execute on the reading
//!    processor and never stale.
//! 3. **Cross-epoch distance.** A breadth-first search backward over the
//!    epoch flow graph finds the minimum number of epoch boundaries to any
//!    epoch that may write an intersecting section; that minimum is the
//!    Time-Read `distance`. A smaller distance is always sound (it only
//!    makes the hardware check stricter), so the min over all static paths
//!    and all inlined instances of the reference is used.
//! 4. **No writer anywhere** ⇒ the read can never be stale: `Plain`.
//!
//! The SC (software cache-bypass) scheme uses the same staleness analysis
//! but downgrades every potentially-stale read to a bypass access.

use crate::epochflow::{same_iteration_only, EpochFlowGraph, EpochKind, NodeId, NodeRead};
use crate::{CompilerOptions, OptLevel};
use std::collections::{BTreeMap, HashSet, VecDeque};
use tpi_ir::{CallGraph, Program, RefSite};
use tpi_mem::{ReadKind, Sharing};

/// Why a reference received its marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkReason {
    /// Covered by an earlier same-task access.
    Covered,
    /// No epoch on any path may write the referenced section.
    NoWriter,
    /// A different iteration of the same DOALL epoch may write the section.
    SameEpochConflict,
    /// Nearest potentially-writing epoch is `distance` boundaries back.
    CrossEpoch,
    /// Marked stale indiscriminately (naive optimization level).
    Indiscriminate,
}

/// The compiler's verdict for one read reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkDecision {
    /// Whether the reference is potentially stale.
    pub stale: bool,
    /// For stale references: epoch-boundary distance to the nearest
    /// potential writer (0 = may be written in the current epoch).
    pub distance: u32,
    /// Explanation of the decision.
    pub reason: MarkReason,
}

impl MarkDecision {
    /// A never-stale (`Plain`) decision.
    #[must_use]
    pub fn plain(reason: MarkReason) -> Self {
        MarkDecision {
            stale: false,
            distance: 0,
            reason,
        }
    }

    /// A potentially-stale decision with Time-Read `distance`.
    #[must_use]
    pub fn stale(distance: u32, reason: MarkReason) -> Self {
        MarkDecision {
            stale: true,
            distance,
            reason,
        }
    }

    /// Conservative merge of decisions for the same static site arriving
    /// from different inlined contexts.
    fn merge(self, other: MarkDecision) -> MarkDecision {
        match (self.stale, other.stale) {
            (false, false) => self,
            (true, false) => self,
            (false, true) => other,
            (true, true) => {
                if other.distance < self.distance {
                    other
                } else {
                    self
                }
            }
        }
    }
}

/// The result of the marking pass: a decision per shared read site.
///
/// Lookups ([`Marking::tpi_kind`] / [`Marking::sc_kind`]) run once per
/// shared read during interpretation, so the table uses the deterministic
/// [`tpi_mem::FastMap`] rather than the std `HashMap`.
#[derive(Debug, Clone, Default)]
pub struct Marking {
    decisions: tpi_mem::FastMap<RefSite, MarkDecision>,
}

impl Marking {
    /// The decision for `site`, if it is a shared-array read the pass saw.
    #[must_use]
    pub fn decision(&self, site: RefSite) -> Option<&MarkDecision> {
        self.decisions.get(&site)
    }

    /// The annotation the TPI hardware receives for `site`.
    ///
    /// Unknown sites (private arrays) are `Plain`. The decision's exact
    /// distance saturates at `u8::MAX` in the annotation, which can only
    /// add conservative misses (see [`ReadKind::TimeRead`]).
    #[must_use]
    pub fn tpi_kind(&self, site: RefSite) -> ReadKind {
        match self.decisions.get(&site) {
            Some(d) if d.stale => ReadKind::TimeRead {
                distance: u8::try_from(d.distance).unwrap_or(u8::MAX),
            },
            _ => ReadKind::Plain,
        }
    }

    /// The annotation the SC (cache-bypass) hardware receives for `site`.
    #[must_use]
    pub fn sc_kind(&self, site: RefSite) -> ReadKind {
        match self.decisions.get(&site) {
            Some(d) if d.stale => ReadKind::Bypass,
            _ => ReadKind::Plain,
        }
    }

    /// Aggregate statistics over all decisions.
    #[must_use]
    pub fn summary(&self) -> MarkingSummary {
        let mut s = MarkingSummary::default();
        for d in self.decisions.values() {
            s.shared_reads += 1;
            if d.stale {
                s.marked += 1;
                *s.distance_histogram.entry(d.distance).or_insert(0) += 1;
            } else {
                s.plain += 1;
                if d.reason == MarkReason::Covered {
                    s.covered += 1;
                }
            }
        }
        s
    }

    /// Iterates over every analyzed shared-read site and its decision.
    pub fn sites(&self) -> impl Iterator<Item = (RefSite, &MarkDecision)> {
        self.decisions.iter().map(|(s, d)| (*s, d))
    }

    /// Overwrites (or inserts) the decision for `site`.
    ///
    /// This is the mutation hook for the analysis layer's
    /// weakening/differential experiments: it deliberately bypasses the
    /// conservative [`merge`](MarkDecision) rule, so the result may be
    /// *unsound* — which is exactly what the staleness oracle exists to
    /// detect.
    pub fn set_decision(&mut self, site: RefSite, d: MarkDecision) {
        self.decisions.insert(site, d);
    }

    fn record(&mut self, site: RefSite, d: MarkDecision) {
        self.decisions
            .entry(site)
            .and_modify(|old| *old = old.merge(d))
            .or_insert(d);
    }
}

/// Aggregate marking statistics (reported by examples and experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkingSummary {
    /// Number of distinct shared-array read sites analyzed.
    pub shared_reads: usize,
    /// Sites left unmarked (provably never stale).
    pub plain: usize,
    /// Sites marked potentially stale.
    pub marked: usize,
    /// Of the plain sites, how many were proven by task-local coverage.
    pub covered: usize,
    /// Marked sites per Time-Read distance.
    pub distance_histogram: BTreeMap<u32, usize>,
}

impl MarkingSummary {
    /// Fraction of shared read sites that had to be marked.
    #[must_use]
    pub fn marked_fraction(&self) -> f64 {
        if self.shared_reads == 0 {
            0.0
        } else {
            self.marked as f64 / self.shared_reads as f64
        }
    }
}

/// Runs the marking pass over `program` at the configured optimization
/// level.
#[must_use]
pub fn mark_program(program: &Program, options: &CompilerOptions) -> Marking {
    match options.level {
        OptLevel::Naive => mark_naive(program),
        OptLevel::Intra => {
            let mut m = Marking::default();
            let cg = CallGraph::of(program);
            for &p in cg.bottom_up() {
                let g = EpochFlowGraph::of_proc_intra(program, p);
                mark_graph(&g, &mut m);
            }
            m
        }
        OptLevel::Full => {
            let g = EpochFlowGraph::of_program(program);
            let mut m = Marking::default();
            mark_graph(&g, &mut m);
            m
        }
    }
}

fn mark_naive(program: &Program) -> Marking {
    let mut m = Marking::default();
    program.for_each_assign(|_, a| {
        for (idx, r) in a.reads.iter().enumerate() {
            if program.array(r.array).sharing() == Sharing::Shared {
                let site = RefSite {
                    stmt: a.id,
                    idx: idx as u32,
                };
                m.record(site, MarkDecision::stale(0, MarkReason::Indiscriminate));
            }
        }
    });
    m
}

fn mark_graph(g: &EpochFlowGraph, m: &mut Marking) {
    for (ni, node) in g.nodes().iter().enumerate() {
        let nid = NodeId(ni);
        for read in &node.reads {
            let d = decide(g, nid, read);
            m.record(read.site, d);
        }
    }
}

fn decide(g: &EpochFlowGraph, nid: NodeId, read: &NodeRead) -> MarkDecision {
    if read.covered {
        return MarkDecision::plain(MarkReason::Covered);
    }
    let node = g.node(nid);
    // Same-epoch conflicts: only DOALL epochs can have remote same-epoch
    // writers (serial epochs run entirely on one processor).
    if matches!(node.kind, EpochKind::Doall(_)) {
        let conflict = node.writes.iter().any(|w| {
            w.array == read.array
                && w.section.may_intersect(&read.section)
                && !same_iteration_only(&w.shape, &read.shape)
        });
        if conflict || node.writes_everything {
            return MarkDecision::stale(0, MarkReason::SameEpochConflict);
        }
    }
    // Cross-epoch: BFS backward for the nearest potential writer.
    let mut visited: HashSet<NodeId> = HashSet::new();
    let mut frontier: VecDeque<(NodeId, u32)> = g.preds(nid).iter().map(|&p| (p, 1)).collect();
    for (p, _) in &frontier {
        visited.insert(*p);
    }
    while let Some((cur, depth)) = frontier.pop_front() {
        if g.node(cur).may_write(read.array, &read.section) {
            return MarkDecision::stale(depth, MarkReason::CrossEpoch);
        }
        for &p in g.preds(cur) {
            if visited.insert(p) {
                frontier.push_back((p, depth + 1));
            }
        }
    }
    MarkDecision::plain(MarkReason::NoWriter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_ir::{subs, Cond, ProgramBuilder, StmtId};

    fn opts_full() -> CompilerOptions {
        CompilerOptions {
            level: OptLevel::Full,
        }
    }

    /// Convenience: find the site of the `idx`-th read of assign `stmt`.
    fn site(stmt: u32, idx: u32) -> RefSite {
        RefSite {
            stmt: StmtId(stmt),
            idx,
        }
    }

    #[test]
    fn producer_consumer_distance_one() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1)); // S0
            f.doall(0, 63, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1)
            }); // S1
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let d = m.decision(site(1, 0)).unwrap();
        assert!(d.stale);
        assert_eq!(d.distance, 1);
        assert_eq!(m.tpi_kind(site(1, 0)), ReadKind::TimeRead { distance: 1 });
        assert_eq!(m.sc_kind(site(1, 0)), ReadKind::Bypass);
    }

    #[test]
    fn intertask_locality_across_unrelated_epoch() {
        // The paper's key improvement over version-control/timestamp
        // schemes: an intervening epoch that does NOT write A must not
        // shrink the reuse window.
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1)); // S0 epoch0
            f.doall(0, 63, |i, f| f.store(b.at(subs![i]), vec![], 1)); // S1 epoch1
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1)); // S2 epoch2
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let d = m.decision(site(2, 0)).unwrap();
        assert!(d.stale);
        assert_eq!(d.distance, 2, "A was last written two epochs back");
    }

    #[test]
    fn same_iteration_write_then_read_is_plain() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(a.at(subs![i]), vec![], 1); // S0 writes A(i)
                f.load(vec![a.at(subs![i])], 1); // S1 reads A(i): covered
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let d = m.decision(site(1, 0)).unwrap();
        assert!(!d.stale);
        assert_eq!(d.reason, MarkReason::Covered);
    }

    #[test]
    fn neighbour_read_in_same_epoch_is_distance_zero() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [65]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(a.at(subs![i]), vec![a.at(subs![i + 1])], 1);
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let d = m.decision(site(0, 0)).unwrap();
        assert!(d.stale);
        assert_eq!(d.distance, 0);
        assert_eq!(d.reason, MarkReason::SameEpochConflict);
    }

    #[test]
    fn no_writer_anywhere_is_plain() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1)
            });
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        assert_eq!(m.decision(site(0, 0)).unwrap().reason, MarkReason::NoWriter);
        assert_eq!(m.decision(site(1, 0)).unwrap().reason, MarkReason::NoWriter);
        assert_eq!(m.summary().marked, 0);
    }

    #[test]
    fn loop_carried_distance_counts_epochs_per_iteration() {
        // do t: { doall write A; doall write B; doall read A } -> reading A
        // written in the same t-iteration, 2 epochs back.
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.serial(0, 9, |_t, f| {
                f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1)); // S0
                f.doall(0, 63, |i, f| f.store(b.at(subs![i]), vec![], 1)); // S1
                f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1)); // S2
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        assert_eq!(m.decision(site(2, 0)).unwrap().distance, 2);
        // And the writer epoch's own *next* write of A is 3 epochs around
        // the loop — check a read placed first in the body.
        let mut p2 = ProgramBuilder::new();
        let a2 = p2.shared("A", [64]);
        let main2 = p2.proc("main", |f| {
            f.serial(0, 9, |_t, f| {
                f.doall(0, 63, |i, f| f.load(vec![a2.at(subs![i])], 1)); // S0
                f.doall(0, 63, |i, f| f.store(a2.at(subs![i]), vec![], 1)); // S1
            });
        });
        let prog2 = p2.finish(main2).unwrap();
        let m2 = mark_program(&prog2, &opts_full());
        assert_eq!(m2.decision(site(0, 0)).unwrap().distance, 1);
    }

    #[test]
    fn branch_takes_minimum_distance() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let main = p.proc("main", |f| {
            f.serial(0, 9, |t, f| {
                f.if_else(
                    Cond::EveryN {
                        var: t,
                        modulus: 2,
                        phase: 0,
                    },
                    |f| {
                        f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
                    },
                    |f| {
                        f.doall(0, 63, |_i, f| f.compute(1));
                    },
                );
                f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        // Reader's predecessor may be the writer arm (distance 1).
        assert_eq!(m.decision(site(2, 0)).unwrap().distance, 1);
    }

    #[test]
    fn disjoint_sections_are_not_stale() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [128]);
        let main = p.proc("main", |f| {
            // writes evens, reads odds: disjoint.
            f.doall(0, 63, |i, f| f.store(a.at(subs![i * 2]), vec![], 1));
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i * 2 + 1])], 1));
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        assert_eq!(m.decision(site(1, 0)).unwrap().reason, MarkReason::NoWriter);
    }

    #[test]
    fn opaque_subscript_forces_conservative_marking() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [128]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i * 2]), vec![], 1));
            let o = f.opaque();
            f.doall(0, 63, |_i, f| f.load(vec![a.at(subs![o])], 1));
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let d = m.decision(site(1, 0)).unwrap();
        assert!(
            d.stale,
            "opaque subscript must be treated as touching anything"
        );
        assert_eq!(d.distance, 1);
    }

    #[test]
    fn intra_mode_is_conservative_after_calls() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let helper = p.proc("helper", |f| {
            f.doall(0, 63, |i, f| f.store(b.at(subs![i]), vec![], 1)); // S0: writes B only
        });
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1)); // S1
            f.call(helper);
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1)); // S2
        });
        let prog = p.finish(main).unwrap();

        let full = mark_program(&prog, &opts_full());
        // Full: helper only writes B, so A's reuse window spans the call.
        assert_eq!(full.decision(site(2, 0)).unwrap().distance, 2);

        let intra = mark_program(
            &prog,
            &CompilerOptions {
                level: OptLevel::Intra,
            },
        );
        // Intra: the call may have written anything, distance collapses to 1.
        assert_eq!(intra.decision(site(2, 0)).unwrap().distance, 1);
    }

    #[test]
    fn naive_mode_marks_everything_distance_zero() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let w = p.private("W", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(a.at(subs![i]), vec![a.at(subs![i]), w.at(subs![i])], 1);
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(
            &prog,
            &CompilerOptions {
                level: OptLevel::Naive,
            },
        );
        let d = m.decision(site(0, 0)).unwrap();
        assert!(d.stale);
        assert_eq!(d.distance, 0);
        // Private read has no decision and defaults to Plain.
        assert_eq!(m.tpi_kind(site(0, 1)), ReadKind::Plain);
    }

    #[test]
    fn summary_counts() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
            f.doall(0, 63, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1); // marked d=1
                f.load(vec![a.at(subs![i])], 1); // covered
            });
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        let s = m.summary();
        assert_eq!(s.shared_reads, 2);
        assert_eq!(s.marked, 1);
        assert_eq!(s.plain, 1);
        assert_eq!(s.covered, 1);
        assert_eq!(s.distance_histogram.get(&1), Some(&1));
        assert!((s.marked_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn serial_epoch_reuse_is_plain() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let main = p.proc("main", |f| {
            // One serial epoch: write then read the same element.
            f.store(a.at(subs![3]), vec![], 1); // S0
            f.load(vec![a.at(subs![3])], 1); // S1: covered
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1)); // S2
        });
        let prog = p.finish(main).unwrap();
        let m = mark_program(&prog, &opts_full());
        assert!(!m.decision(site(1, 0)).unwrap().stale);
        // The doall readers see the serial write one epoch back.
        let d2 = m.decision(site(2, 0)).unwrap();
        assert!(d2.stale);
        assert_eq!(d2.distance, 1);
    }

    #[test]
    fn time_read_distances_saturate_at_a_byte() {
        let mut m = Marking::default();
        m.set_decision(site(0, 0), MarkDecision::stale(300, MarkReason::CrossEpoch));
        m.set_decision(site(0, 1), MarkDecision::stale(255, MarkReason::CrossEpoch));
        assert_eq!(m.tpi_kind(site(0, 0)), ReadKind::TimeRead { distance: 255 });
        assert_eq!(m.tpi_kind(site(0, 1)), ReadKind::TimeRead { distance: 255 });
        assert_eq!(m.decision(site(0, 0)).unwrap().distance, 300, "kept exact");
    }
}
