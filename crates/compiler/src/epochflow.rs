//! The epoch flow graph: static epochs and the control flow between them.
//!
//! This is the paper's "modified flow graph, called the epoch flow graph"
//! (\[21\] in the paper): nodes are static epochs (one DOALL loop or one
//! maximal serial region), edges connect epochs that can execute
//! consecutively, and every node carries the array references executed
//! within it, summarized as bounded regular sections.
//!
//! Interprocedural analysis is performed by *inlining* callee epoch
//! structure at each call site (the IR forbids recursion, so this
//! terminates); this is at least as precise as the paper's bottom-up
//! side-effect propagation. The intraprocedural-only ablation
//! ([`OptLevel::Intra`](crate::OptLevel)) instead models each epoch-bearing
//! call as an opaque node that may write every shared array — reproducing
//! the "invalidate at procedure boundaries" behaviour of earlier schemes the
//! paper improves upon.

use crate::OptLevel;
use std::collections::HashSet;
use tpi_ir::epochs::{EpochShape, Segment};
use tpi_ir::{
    ArrayRef, Assign, DimRange, ProcIdx, Program, RefSite, Section, Stmt, Subscript, VarId,
    VarRanges,
};
use tpi_mem::{ArrayId, Sharing};

/// Index of a node in the epoch flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// What kind of epoch a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// A maximal serial region: executes on a single processor.
    Serial,
    /// A DOALL loop over the given induction variable: iterations are
    /// distributed over processors with compile-time-unknown scheduling.
    Doall(VarId),
    /// An epoch-bearing call treated opaquely (intraprocedural mode only):
    /// may write any shared array, any number of internal boundaries is
    /// possible (conservatively one).
    OpaqueCall,
}

/// Per-dimension shape of a subscript relative to the node's DOALL variable,
/// used by the same-iteration disjointness test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimShape {
    /// Affine subscript split as `coeff_v * v + rest`.
    Affine {
        /// Coefficient of the DOALL variable (zero in serial epochs).
        coeff_v: i64,
        /// The subscript with the DOALL-variable term removed.
        rest: tpi_ir::Affine,
        /// Value range of `rest` under the bindings in scope at the
        /// reference (None when some variable is unbounded).
        rest_range: Option<DimRange>,
    },
    /// Unanalyzable subscript.
    Opaque,
}

/// A read reference recorded in a node.
#[derive(Debug, Clone)]
pub struct NodeRead {
    /// Static identity of the reference.
    pub site: RefSite,
    /// Referenced array.
    pub array: ArrayId,
    /// Over-approximate element set across the whole epoch.
    pub section: Section,
    /// Raw subscripts (for coverage tests).
    pub raw: ArrayRef,
    /// Per-dimension shape w.r.t. the node's DOALL variable.
    pub shape: Vec<DimShape>,
    /// Whether an earlier access in the same task provably covers this read
    /// (read-after-local-access: never stale).
    pub covered: bool,
}

/// A write reference recorded in a node.
#[derive(Debug, Clone)]
pub struct NodeWrite {
    /// Written array.
    pub array: ArrayId,
    /// Over-approximate element set across the whole epoch.
    pub section: Section,
    /// Per-dimension shape w.r.t. the node's DOALL variable.
    pub shape: Vec<DimShape>,
    /// Whether the write sits inside a lock-guarded critical section (the
    /// lock, not the iteration space, serializes it).
    pub critical: bool,
}

/// One static epoch.
#[derive(Debug, Clone)]
pub struct EpochNode {
    /// Serial, DOALL, or opaque call.
    pub kind: EpochKind,
    /// Reads executed in this epoch, in walk order.
    pub reads: Vec<NodeRead>,
    /// Writes executed in this epoch.
    pub writes: Vec<NodeWrite>,
    /// If set, the node may write any element of any shared array
    /// (opaque-call conservatism).
    pub writes_everything: bool,
    /// Whether the epoch contains post/wait synchronization: accesses may
    /// be ordered by events rather than the iteration space.
    pub has_sync: bool,
}

impl EpochNode {
    /// Whether this node may write an element of `array` intersecting
    /// `section`.
    #[must_use]
    pub fn may_write(&self, array: ArrayId, section: &Section) -> bool {
        self.writes_everything
            || self
                .writes
                .iter()
                .any(|w| w.array == array && w.section.may_intersect(section))
    }
}

/// The epoch flow graph of a program (or of one procedure in
/// intraprocedural mode).
#[derive(Debug, Clone)]
pub struct EpochFlowGraph {
    nodes: Vec<EpochNode>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl EpochFlowGraph {
    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[EpochNode] {
        &self.nodes
    }

    /// Node by id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &EpochNode {
        &self.nodes[id.0]
    }

    /// Immediate predecessor epochs of `id`.
    #[must_use]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.0]
    }

    /// Immediate successor epochs of `id`.
    #[must_use]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.0]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no epochs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds the interprocedural (inlined) graph of the whole program.
    #[must_use]
    pub fn of_program(program: &Program) -> Self {
        let shape = EpochShape::of(program);
        let mut b = GraphBuilder::new(program, &shape, OptLevel::Full);
        let mut ranges = VarRanges::new();
        let segs = shape.segment_proc(program, program.entry);
        let _ = b.build_segments(&segs, program.entry, &mut ranges);
        b.finish()
    }

    /// Builds the intraprocedural graph of one procedure: epoch-bearing
    /// calls become opaque may-write-everything nodes, and a virtual opaque
    /// predecessor models the unknown caller context.
    #[must_use]
    pub fn of_proc_intra(program: &Program, proc: ProcIdx) -> Self {
        let shape = EpochShape::of(program);
        let mut b = GraphBuilder::new(program, &shape, OptLevel::Intra);
        // Virtual entry: unknown prior context that may have written
        // everything (procedure-boundary conservatism).
        let virt = b.new_node(EpochKind::OpaqueCall);
        b.nodes[virt.0].writes_everything = true;
        let mut ranges = VarRanges::new();
        let segs = shape.segment_proc(program, proc);
        let region = b.build_segments(&segs, proc, &mut ranges);
        for e in &region.entries {
            b.edge(virt, *e);
        }
        b.finish()
    }
}

/// Entry/exit summary of a built sub-region of the graph.
struct Region {
    entries: Vec<NodeId>,
    exits: Vec<NodeId>,
    /// Whether the region can execute without entering any epoch.
    passthrough: bool,
}

struct GraphBuilder<'p> {
    program: &'p Program,
    shape: &'p EpochShape,
    level: OptLevel,
    nodes: Vec<EpochNode>,
    succs: Vec<Vec<NodeId>>,
}

impl<'p> GraphBuilder<'p> {
    fn new(program: &'p Program, shape: &'p EpochShape, level: OptLevel) -> Self {
        GraphBuilder {
            program,
            shape,
            level,
            nodes: Vec::new(),
            succs: Vec::new(),
        }
    }

    fn new_node(&mut self, kind: EpochKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(EpochNode {
            kind,
            reads: Vec::new(),
            writes: Vec::new(),
            writes_everything: false,
            has_sync: false,
        });
        self.succs.push(Vec::new());
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from.0].contains(&to) {
            self.succs[from.0].push(to);
        }
    }

    fn finish(self) -> EpochFlowGraph {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (u, ss) in self.succs.iter().enumerate() {
            for v in ss {
                preds[v.0].push(NodeId(u));
            }
        }
        EpochFlowGraph {
            nodes: self.nodes,
            succs: self.succs,
            preds,
        }
    }

    fn build_segments(
        &mut self,
        segs: &[Segment<'p>],
        proc: ProcIdx,
        ranges: &mut VarRanges,
    ) -> Region {
        let mut entries: Vec<NodeId> = Vec::new();
        let mut exits: Vec<NodeId> = Vec::new();
        let mut passthrough = true; // empty prefix executes no epoch
        for seg in segs {
            let r = self.build_segment(seg, proc, ranges);
            // Connect current exits to the new region's entries.
            for x in &exits {
                for e in &r.entries {
                    self.edge(*x, *e);
                }
            }
            if passthrough {
                entries.extend(r.entries.iter().copied());
            }
            if r.passthrough {
                exits.extend(r.exits.iter().copied());
            } else {
                exits = r.exits;
            }
            passthrough &= r.passthrough;
            dedup(&mut entries);
            dedup(&mut exits);
        }
        Region {
            entries,
            exits,
            passthrough,
        }
    }

    fn build_segment(
        &mut self,
        seg: &Segment<'p>,
        proc: ProcIdx,
        ranges: &mut VarRanges,
    ) -> Region {
        match seg {
            Segment::Serial(stmts) => {
                let id = self.new_node(EpochKind::Serial);
                let mut walk = RefWalk::new(self.program, self.level, None);
                walk.walk_stmts(stmts.iter().copied(), ranges);
                let (reads, writes, we, sync) = walk.into_parts();
                self.nodes[id.0].reads = reads;
                self.nodes[id.0].writes = writes;
                self.nodes[id.0].writes_everything = we;
                self.nodes[id.0].has_sync = sync;
                Region {
                    entries: vec![id],
                    exits: vec![id],
                    passthrough: false,
                }
            }
            Segment::Doall(l) => {
                let id = self.new_node(EpochKind::Doall(l.var));
                let bound = ranges.bind_loop(l.var, &l.lo, &l.hi, l.step);
                if bound.is_none() {
                    ranges.unbind(l.var);
                }
                let mut walk = RefWalk::new(self.program, self.level, Some(l.var));
                walk.walk_stmts(l.body.iter(), ranges);
                ranges.unbind(l.var);
                let (reads, writes, we, sync) = walk.into_parts();
                self.nodes[id.0].reads = reads;
                self.nodes[id.0].writes = writes;
                self.nodes[id.0].writes_everything = we;
                self.nodes[id.0].has_sync = sync;
                Region {
                    entries: vec![id],
                    exits: vec![id],
                    passthrough: false,
                }
            }
            Segment::SerialLoop { l, body } => {
                let bound = ranges.bind_loop(l.var, &l.lo, &l.hi, l.step);
                if bound.is_none() {
                    ranges.unbind(l.var);
                }
                let may_be_empty = loop_may_be_empty(&l.lo, &l.hi, ranges);
                let r = self.build_segments(body, proc, ranges);
                ranges.unbind(l.var);
                // Back edge: each iteration re-enters the body.
                for x in &r.exits {
                    for e in &r.entries {
                        self.edge(*x, *e);
                    }
                }
                Region {
                    entries: r.entries,
                    exits: r.exits,
                    passthrough: r.passthrough || may_be_empty,
                }
            }
            Segment::Branch {
                then_seg, else_seg, ..
            } => {
                let t = self.build_segments(then_seg, proc, ranges);
                let e = self.build_segments(else_seg, proc, ranges);
                let mut entries = t.entries;
                entries.extend(e.entries);
                let mut exits = t.exits;
                exits.extend(e.exits);
                Region {
                    entries,
                    exits,
                    passthrough: t.passthrough || e.passthrough,
                }
            }
            Segment::Call(callee) => match self.level {
                OptLevel::Full => {
                    let segs = self.shape.segment(&self.program.proc(*callee).body);
                    let mut callee_ranges = VarRanges::new();
                    self.build_segments(&segs, *callee, &mut callee_ranges)
                }
                OptLevel::Intra | OptLevel::Naive => {
                    let id = self.new_node(EpochKind::OpaqueCall);
                    self.nodes[id.0].writes_everything = true;
                    Region {
                        entries: vec![id],
                        exits: vec![id],
                        passthrough: false,
                    }
                }
            },
        }
    }
}

fn dedup(v: &mut Vec<NodeId>) {
    let mut seen = HashSet::new();
    v.retain(|x| seen.insert(*x));
}

fn loop_may_be_empty(lo: &tpi_ir::Affine, hi: &tpi_ir::Affine, ranges: &VarRanges) -> bool {
    match (ranges.range_of(lo), ranges.range_of(hi)) {
        // Definitely nonempty iff even the largest lower bound is at most
        // the smallest upper bound.
        (Some(l), Some(h)) => l.hi > h.lo,
        _ => true,
    }
}

/// Walks the statements of one epoch, collecting reads/writes with sections,
/// shapes and task-local coverage.
struct RefWalk<'p> {
    program: &'p Program,
    level: OptLevel,
    doall_var: Option<VarId>,
    reads: Vec<NodeRead>,
    writes: Vec<NodeWrite>,
    writes_everything: bool,
    covered: HashSet<(ArrayId, Vec<Subscript>)>,
    /// Inside a lock-guarded critical section.
    in_critical: bool,
    /// Saw post/wait synchronization anywhere in the epoch.
    saw_sync: bool,
}

impl<'p> RefWalk<'p> {
    fn new(program: &'p Program, level: OptLevel, doall_var: Option<VarId>) -> Self {
        RefWalk {
            program,
            level,
            doall_var,
            reads: Vec::new(),
            writes: Vec::new(),
            writes_everything: false,
            covered: HashSet::new(),
            in_critical: false,
            saw_sync: false,
        }
    }

    fn into_parts(self) -> (Vec<NodeRead>, Vec<NodeWrite>, bool, bool) {
        (
            self.reads,
            self.writes,
            self.writes_everything,
            self.saw_sync,
        )
    }

    fn walk_stmts<'s>(&mut self, stmts: impl IntoIterator<Item = &'s Stmt>, ranges: &mut VarRanges)
    where
        'p: 's,
    {
        for s in stmts {
            self.walk_stmt(s, ranges);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, ranges: &mut VarRanges) {
        match s {
            Stmt::Assign(a) => self.visit_assign(a, ranges),
            Stmt::Loop(l) => {
                let bound = ranges.bind_loop(l.var, &l.lo, &l.hi, l.step);
                if bound.is_none() {
                    ranges.unbind(l.var);
                }
                let snapshot = self.covered.clone();
                self.walk_stmts(&l.body, ranges);
                ranges.unbind(l.var);
                // Entries added inside the loop are only valid within one
                // iteration; conservatively restore the entry coverage.
                self.covered = snapshot;
            }
            Stmt::If(i) => {
                let entry = self.covered.clone();
                self.walk_stmts(&i.then_body, ranges);
                let after_then = std::mem::replace(&mut self.covered, entry);
                self.walk_stmts(&i.else_body, ranges);
                // Only coverage established on *both* arms survives the join.
                self.covered = self.covered.intersection(&after_then).cloned().collect();
            }
            Stmt::Call(p) => match self.level {
                OptLevel::Full => {
                    // Serial-only callee inside this epoch: inline its
                    // references. Its own variable space starts fresh; its
                    // coverage is task-local and composes with ours.
                    let mut callee_ranges = VarRanges::new();
                    let body = &self.program.proc(*p).body;
                    self.walk_stmts(body, &mut callee_ranges);
                }
                OptLevel::Intra | OptLevel::Naive => {
                    // Opaque serial call: runs on the same processor, so it
                    // cannot *stale* anything here, but we cannot inline its
                    // references either (they are analyzed in the callee's
                    // own graph).
                }
            },
            Stmt::Critical(c) => {
                // Lock-serialized accesses: writes may touch any
                // iteration's elements regardless of their subscripts (the
                // lock, not the iteration space, serializes them), so
                // their shapes are opaque for the same-iteration proof and
                // they establish no task-local coverage. Reads will be
                // forced to `ReadKind::Critical` by the trace generator.
                let was = self.in_critical;
                self.in_critical = true;
                self.walk_stmts(&c.body, ranges);
                self.in_critical = was;
            }
            Stmt::Post { .. } | Stmt::Wait { .. } => {
                // Synchronization carries no array references; reads made
                // safe by post/wait ordering still receive the distance-0
                // marking from the same-epoch conflict rule, which is what
                // forces them to fetch the freshly published data.
                self.saw_sync = true;
            }
            Stmt::Doall(_) => {
                unreachable!("segmentation guarantees no DOALL inside an epoch body")
            }
        }
    }

    fn visit_assign(&mut self, a: &Assign, ranges: &VarRanges) {
        for (idx, r) in a.reads.iter().enumerate() {
            let site = RefSite {
                stmt: a.id,
                idx: idx as u32,
            };
            let decl = self.program.array(r.array);
            if decl.sharing() == Sharing::Private {
                continue; // private data is never stale
            }
            let key = (r.array, r.subs.clone());
            let covered = !self.in_critical && self.covered.contains(&key);
            self.reads.push(NodeRead {
                site,
                array: r.array,
                section: Section::of_ref(r, ranges, decl),
                raw: r.clone(),
                shape: self.shape_of(r, ranges),
                covered,
            });
            if !self.in_critical {
                self.covered.insert(key);
            }
        }
        if let Some(w) = &a.write {
            let decl = self.program.array(w.array);
            if decl.sharing() == Sharing::Shared {
                let shape = if self.in_critical {
                    // Lock-serialized write: may touch other iterations'
                    // elements; defeat the same-iteration disjointness
                    // proof.
                    w.subs.iter().map(|_| DimShape::Opaque).collect()
                } else {
                    self.shape_of(w, ranges)
                };
                self.writes.push(NodeWrite {
                    array: w.array,
                    section: Section::of_ref(w, ranges, decl),
                    shape,
                    critical: self.in_critical,
                });
            }
            if !self.in_critical {
                self.covered.insert((w.array, w.subs.clone()));
            }
        }
    }

    fn shape_of(&self, r: &ArrayRef, ranges: &VarRanges) -> Vec<DimShape> {
        r.subs
            .iter()
            .map(|s| match s.as_affine() {
                Some(a) => {
                    let coeff_v = self.doall_var.map_or(0, |v| a.coeff(v));
                    let rest = match self.doall_var {
                        Some(v) => {
                            let mut r = a.clone();
                            r = r - tpi_ir::Affine::scaled_var(v, coeff_v);
                            r
                        }
                        None => a.clone(),
                    };
                    let rest_range = ranges.range_of(&rest);
                    DimShape::Affine {
                        coeff_v,
                        rest,
                        rest_range,
                    }
                }
                None => DimShape::Opaque,
            })
            .collect()
    }
}

/// Conservative test: can a write with shape `w` and a read with shape `r`
/// (both in the same DOALL epoch) only ever touch a common element when
/// executed by the *same* iteration?
///
/// Returns `true` only when provable; `false` means a cross-iteration
/// (cross-processor) conflict is possible.
#[must_use]
pub fn same_iteration_only(w: &[DimShape], r: &[DimShape]) -> bool {
    w.iter().zip(r).any(|(ws, rs)| match (ws, rs) {
        (
            DimShape::Affine {
                coeff_v: cw,
                rest: rw,
                rest_range: rrw,
            },
            DimShape::Affine {
                coeff_v: cr,
                rest: rr,
                rest_range: rrr,
            },
        ) => {
            if cw != cr || *cw == 0 {
                return false;
            }
            // Same coefficient c != 0: a common element at iterations
            // i1 != i2 requires c*(i1-i2) == rest_r - rest_w, impossible when
            // |c| exceeds every achievable |rest_r - rest_w|.
            if rw == rr && rw.is_constant() {
                return true;
            }
            match (rrw, rrr) {
                (Some(a), Some(b)) => {
                    let max_delta = (b.hi - a.lo).abs().max((b.lo - a.hi).abs());
                    cw.abs() > max_delta
                }
                _ => false,
            }
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_ir::{subs, Cond, ProgramBuilder};

    fn two_epoch_program() -> (Program, ProcIdx) {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
            f.doall(0, 63, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1)
            });
        });
        (p.finish(main).unwrap(), main)
    }

    #[test]
    fn builds_chain_for_straightline_epochs() {
        let (prog, _) = two_epoch_program();
        let g = EpochFlowGraph::of_program(&prog);
        assert_eq!(g.len(), 2);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.preds(NodeId(1)), &[NodeId(0)]);
        assert!(matches!(g.node(NodeId(0)).kind, EpochKind::Doall(_)));
        assert_eq!(g.node(NodeId(0)).writes.len(), 1);
        assert_eq!(g.node(NodeId(1)).reads.len(), 1);
    }

    #[test]
    fn serial_loop_creates_back_edge() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let main = p.proc("main", |f| {
            f.serial(0, 9, |_t, f| {
                f.doall(0, 63, |i, f| {
                    f.store(a.at(subs![i]), vec![a.at(subs![i])], 1)
                });
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        assert_eq!(g.len(), 1);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(0)], "self back edge");
    }

    #[test]
    fn branch_creates_diamond() {
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
                    |f| f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1)),
                    |f| f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1)),
                );
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        assert_eq!(g.len(), 2);
        // Both arms loop back to both arms.
        let mut s0 = g.succs(NodeId(0)).to_vec();
        s0.sort();
        assert_eq!(s0, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn full_mode_inlines_calls() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let helper = p.proc("helper", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
        });
        let main = p.proc("main", |f| {
            f.call(helper);
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        assert_eq!(g.len(), 2);
        assert!(!g.nodes().iter().any(|n| n.writes_everything));
    }

    #[test]
    fn intra_mode_makes_calls_opaque_with_virtual_entry() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let helper = p.proc("helper", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
        });
        let main = p.proc("main", |f| {
            f.call(helper);
            f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_proc_intra(&prog, main);
        // virtual entry + opaque call + reader doall
        assert_eq!(g.len(), 3);
        assert!(g.node(NodeId(0)).writes_everything);
        assert!(g.node(NodeId(1)).writes_everything);
    }

    #[test]
    fn coverage_within_iteration() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let b = p.shared("B", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1); // first read of A(i)
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 1); // covered
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        let n = g.node(NodeId(0));
        assert_eq!(n.reads.len(), 2);
        assert!(!n.reads[0].covered);
        assert!(n.reads[1].covered);
    }

    #[test]
    fn coverage_does_not_leak_from_branches() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.if_else(
                    Cond::EveryN {
                        var: i,
                        modulus: 2,
                        phase: 0,
                    },
                    |f| f.load(vec![a.at(subs![i])], 1),
                    |f| f.compute(1),
                );
                f.load(vec![a.at(subs![i])], 1); // only one arm covered it
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        let n = g.node(NodeId(0));
        assert!(!n.reads[1].covered, "coverage must require both arms");
    }

    #[test]
    fn same_iteration_only_tests() {
        let (prog, _) = two_epoch_program();
        let g = EpochFlowGraph::of_program(&prog);
        let writer = &g.node(NodeId(1)).writes[0]; // B(i)
        let reader = &g.node(NodeId(1)).reads[0]; // A(i)
                                                  // Same subscript pattern (coeff 1, rest 0): same-iteration only.
        assert!(same_iteration_only(&writer.shape, &reader.shape));
    }

    #[test]
    fn cross_iteration_conflict_detected() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [65]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                // read of the neighbour written by iteration i+1: conflict.
                f.store(a.at(subs![i]), vec![a.at(subs![i + 1])], 1);
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        let n = g.node(NodeId(0));
        assert!(!same_iteration_only(&n.writes[0].shape, &n.reads[0].shape));
    }

    #[test]
    fn inner_serial_loop_defeats_same_iteration_proof_when_spans_overlap() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64, 64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.serial(0, 63, |j, f| {
                    // A(i, j): dim 0 has coeff 1 on i with constant rest ->
                    // provably same-iteration.
                    f.store(a.at(subs![i, j]), vec![a.at(subs![i, j])], 1);
                });
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        let n = g.node(NodeId(0));
        assert!(same_iteration_only(&n.writes[0].shape, &n.reads[0].shape));

        // Now flatten: A2(64*i + j) vs A2(64*i + j): rest j spans 0..63,
        // |coeff|=64 > 63 -> still provably same-iteration.
        let mut p2 = ProgramBuilder::new();
        let a2 = p2.shared("A2", [4096]);
        let main2 = p2.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.serial(0, 63, |j, f| {
                    f.store(a2.at(subs![i * 64 + j]), vec![a2.at(subs![i * 64 + j])], 1);
                });
            });
        });
        let prog2 = p2.finish(main2).unwrap();
        let g2 = EpochFlowGraph::of_program(&prog2);
        let n2 = g2.node(NodeId(0));
        assert!(same_iteration_only(&n2.writes[0].shape, &n2.reads[0].shape));

        // But with stride 32 the tiles overlap across iterations.
        let mut p3 = ProgramBuilder::new();
        let a3 = p3.shared("A3", [4096]);
        let main3 = p3.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.serial(0, 63, |j, f| {
                    f.store(a3.at(subs![i * 32 + j]), vec![a3.at(subs![i * 32 + j])], 1);
                });
            });
        });
        let prog3 = p3.finish(main3).unwrap();
        let g3 = EpochFlowGraph::of_program(&prog3);
        let n3 = g3.node(NodeId(0));
        assert!(!same_iteration_only(
            &n3.writes[0].shape,
            &n3.reads[0].shape
        ));
    }

    #[test]
    fn private_arrays_are_not_collected() {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let w = p.private("W", [64]);
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| {
                f.store(w.at(subs![i]), vec![a.at(subs![i]), w.at(subs![i])], 1);
            });
        });
        let prog = p.finish(main).unwrap();
        let g = EpochFlowGraph::of_program(&prog);
        let n = g.node(NodeId(0));
        assert_eq!(n.reads.len(), 1, "private read skipped");
        assert!(n.writes.is_empty(), "private write skipped");
    }
}
