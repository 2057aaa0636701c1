//! The execution-driven interpreter: runs an IR program over `P` logical
//! processors and emits the per-epoch memory-event streams the timing
//! simulators consume.
//!
//! The interpreter uses the *same* epoch segmentation as the compiler
//! (`tpi_ir::epochs`), which is what makes compiler-computed Time-Read
//! distances meaningful at runtime. It also maintains a global per-word
//! version counter (attached to every event) and checks DOALL race freedom —
//! the paper's correctness precondition ("doall" iterations are independent
//! tasks).
//!
//! # State per access
//!
//! Every access is the interpreter's innermost hot path, so it does no
//! hashing:
//!
//! * all per-word state is one [`DenseTable`] of 28-byte records: the
//!   word's version, and its race state within one DOALL epoch, stamped
//!   with that epoch. A record stamped with an earlier epoch reads as
//!   untouched, so nothing is cleared between epochs;
//! * every read site's TPI annotation is resolved once per trace into a
//!   table indexed by `StmtId`;
//! * a reference's subscripts are evaluated as its row-major offset is
//!   accumulated ([`MemLayout::addr_with`]), with no index buffer;
//! * a DOALL epoch merges its processors' schedules through a min-heap of
//!   their next iterations;
//! * [`TraceStats`] are counted as events are emitted.
//!
//! The table is keyed by a compacted word index: shared words at their
//! own addresses, then each processor's private replica packed after the
//! shared span (in the trace, replicas sit a whole span apart, at
//! `span × (p + 1)`, so keyed by address every replica would pin a page of
//! its own). It pays for the pages the trace touches, 4,096 records
//! (112 KiB) each: under 1 MB for the paper-scale kernels on 16
//! processors, 56 MiB for OCEAN-large and 84 MiB for ARC2D-large on 1,024
//! processors. It lives only while the trace is generated and is freed
//! before the trace is returned; its pages stay below the allocator's
//! usual mapping threshold, so the heap reuses them for the replay.

use crate::event::{EpochEvents, EpochExecKind, Event, InterpHostProfile, Trace, TraceStats};
use crate::sched::{assign, SchedulePolicy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::time::Instant;
use tpi_compiler::Marking;
use tpi_ir::epochs::{EpochShape, Segment};
use tpi_ir::{ArrayRef, Env, Program, RefSite, Stmt, Subscript};
use tpi_mem::{DenseTable, Epoch, FastMap, LineGeometry, MemLayout, ReadKind, Sharing, WordAddr};

/// Options controlling trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOptions {
    /// Number of processors (the paper simulates 16).
    pub num_procs: u32,
    /// DOALL scheduling policy.
    pub policy: SchedulePolicy,
    /// Seed for dynamic scheduling decisions.
    pub seed: u64,
    /// Whether to verify DOALL race freedom. Recommended: the check shares
    /// each access's one table lookup with the version counter, so it costs
    /// a few compares per shared access. Off, a racy program still traces.
    ///
    /// Two iterations' conflicting accesses to a word (one a write) are
    /// ordered only when the later one waited on an event the earlier one
    /// posted, or both are critical under one lock. Order is not
    /// transitive, and a word keeps its last writer and first reader
    /// only, so a write after reads by two or more iterations is always a
    /// race: a doacross chain in which each iteration reads and then
    /// writes a word after waiting for its predecessor is reported, though
    /// the chain orders it. The check never accepts a racy program.
    pub check_races: bool,
    /// Line geometry used to align array bases.
    pub geometry: LineGeometry,
    /// Rotate serial epochs across processors (epoch `k` runs on processor
    /// `k mod P`) instead of pinning them to processor 0. The compiler is
    /// already conservative about serial-epoch placement, so its marking
    /// is sound either way — this knob measures what that conservatism
    /// buys.
    pub rotate_serial: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            num_procs: 16,
            policy: SchedulePolicy::StaticBlock,
            seed: 0xC0FF_EE00,
            check_races: true,
            geometry: LineGeometry::new(4),
            rotate_serial: false,
        }
    }
}

/// Trace generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Two different DOALL iterations of one epoch conflicted on a word —
    /// the program is not a valid DOALL program.
    Race {
        /// Conflicting address.
        addr: WordAddr,
        /// Epoch in which the conflict occurred.
        epoch: Epoch,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Race { addr, epoch } => {
                write!(
                    f,
                    "DOALL race on {addr} in {epoch}: iterations are not independent"
                )
            }
        }
    }
}

impl Error for TraceError {}

/// Runs `program` under `marking` and returns its event trace.
///
/// # Errors
///
/// Returns [`TraceError::Race`] if race checking is enabled and two DOALL
/// iterations of one epoch conflict on a word: the first conflicting access
/// in execution order is the one reported.
pub fn generate_trace(
    program: &Program,
    marking: &Marking,
    opts: &TraceOptions,
) -> Result<Trace, TraceError> {
    let shape = EpochShape::of(program);
    let layout = MemLayout::new(program.arrays.clone(), opts.geometry);
    let site_kinds = site_kinds(program, marking);
    let (private_base, private_words) = packed_replica(&layout);
    private_words
        .checked_mul(u64::from(opts.num_procs))
        .and_then(|replicas| replicas.checked_add(layout.total_words()))
        .expect("fewer than 2^64 words with every private replica");
    let mut interp = Interp {
        program,
        shape: &shape,
        opts,
        layout: &layout,
        site_kinds: &site_kinds,
        private_base: &private_base,
        private_words,
        words: DenseTable::default(),
        posts: FastMap::default(),
        epochs: Vec::new(),
        stats: TraceStats::default(),
        error: None,
        host: InterpHostProfile::default(),
    };
    let segs = shape.segment_proc(program, program.entry);
    let mut env = Env::new();
    interp.exec_segments(&segs, &mut env);
    let Interp {
        epochs,
        stats,
        error,
        host,
        ..
    } = interp;
    if let Some(e) = error {
        return Err(e);
    }
    Ok(Trace {
        epochs,
        layout,
        num_procs: opts.num_procs,
        stats,
        host,
    })
}

/// The TPI annotation of every read site, indexed by statement id, then by
/// the read's position in its statement.
fn site_kinds(program: &Program, marking: &Marking) -> Vec<Vec<ReadKind>> {
    let mut kinds: Vec<Vec<ReadKind>> = Vec::new();
    program.for_each_assign(|_, a| {
        let stmt = a.id.0 as usize;
        if kinds.len() <= stmt {
            kinds.resize_with(stmt + 1, Vec::new);
        }
        let known = &mut kinds[stmt];
        for idx in known.len()..a.reads.len() {
            known.push(marking.tpi_kind(RefSite {
                stmt: a.id,
                idx: idx as u32,
            }));
        }
    });
    kinds
}

/// Each array's offset within one packed private replica (meaningful for
/// private arrays only), and the words one replica holds.
fn packed_replica(layout: &MemLayout) -> (Vec<u64>, u64) {
    let mut words = 0;
    let base = layout
        .decls()
        .iter()
        .map(|d| {
            let at = words;
            if d.sharing() == Sharing::Private {
                words += d.len_words();
            }
            at
        })
        .collect();
    (base, words)
}

/// Merged lock context of all accesses to a word within one epoch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum LockCtx {
    /// No access recorded yet.
    #[default]
    Empty,
    /// Every access so far was critical under this lock.
    Uniform(u32),
    /// Mixed contexts (non-critical, or different locks).
    Tainted,
}

impl LockCtx {
    fn merge(self, ctx: Option<u32>) -> LockCtx {
        match (self, ctx) {
            (LockCtx::Empty, Some(l)) => LockCtx::Uniform(l),
            (LockCtx::Uniform(a), Some(l)) if a == l => LockCtx::Uniform(a),
            _ => LockCtx::Tainted,
        }
    }
}

/// The ordinal [`WordState::record`] reports for a word's readers when two
/// or more iterations read it: no iteration has it, so no post orders it.
const UNKNOWN_READERS: u32 = u32::MAX;

/// The interpreter's state for one word: its version and its race state in
/// the DOALL epoch named by `stamp`.
///
/// Tasks are named by iteration *ordinal*: the iteration's position in its
/// epoch's iteration list plus one, so zero means none. The record takes 28
/// bytes, so a page of 4,096 (112 KiB) stays below glibc's 128 KiB mmap
/// threshold and comes from the heap, which the replay reuses once the
/// table is freed. Pages over the threshold would each be mapped and
/// faulted in afresh.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct WordState {
    /// Writes to the word so far.
    version: u32,
    /// DOALL epoch + 1 that the fields below describe.
    stamp: u32,
    /// Ordinal of the last writing iteration.
    writer: u32,
    /// Ordinal of the first reading iteration.
    first_reader: u32,
    /// Lock context merged over the epoch's accesses.
    ctx: LockCtx,
    /// Whether a second iteration has read the word.
    multi_reader: bool,
}

impl WordState {
    /// Records an access by iteration `task` in the DOALL epoch stamped
    /// `stamp`, made under lock `ctx`. Returns the ordinals of the other
    /// iterations' accesses it conflicts with and must be ordered after (0
    /// for none), unless the word is serialized by one lock: for a read,
    /// the word's writer; for a write, the previous writer and the reader.
    /// A write after reads by two or more iterations reports
    /// [`UNKNOWN_READERS`], which no post orders: only the first reader is
    /// kept.
    fn record(&mut self, stamp: u32, task: u32, ctx: Option<u32>, is_write: bool) -> [u32; 2] {
        if self.stamp != stamp {
            *self = WordState {
                version: self.version,
                stamp,
                ..WordState::default()
            };
        }
        self.ctx = self.ctx.merge(ctx);
        let other = |ordinal: u32| if ordinal == task { 0 } else { ordinal };
        let prior = if is_write {
            let writer = std::mem::replace(&mut self.writer, task);
            let reader = if self.multi_reader {
                UNKNOWN_READERS
            } else {
                other(self.first_reader)
            };
            [other(writer), reader]
        } else {
            if self.first_reader == 0 {
                self.first_reader = task;
            } else if self.first_reader != task {
                self.multi_reader = true;
            }
            [other(self.writer), 0]
        };
        // Cross-task conflicts are permitted when every access to the word
        // is critical under one single lock.
        if matches!(self.ctx, LockCtx::Uniform(_)) {
            return [0, 0];
        }
        prior
    }
}

struct Interp<'a> {
    program: &'a Program,
    shape: &'a EpochShape,
    opts: &'a TraceOptions,
    layout: &'a MemLayout,
    site_kinds: &'a [Vec<ReadKind>],
    /// Each array's offset within a packed private replica (private arrays
    /// only).
    private_base: &'a [u64],
    /// Words in one packed private replica.
    private_words: u64,
    /// Version and race state of every word touched so far, keyed by its
    /// index: the shared segment, then one packed private replica per
    /// processor.
    words: DenseTable<WordState>,
    /// Per-epoch post table ((event, index) -> posting iteration's
    /// ordinal), hoisted so its capacity is reused and cleared per epoch.
    posts: FastMap<(u32, i64), u32>,
    epochs: Vec<EpochEvents>,
    stats: TraceStats,
    error: Option<TraceError>,
    host: InterpHostProfile,
}

impl<'a> Interp<'a> {
    fn exec_segments(&mut self, segs: &[Segment<'a>], env: &mut Env) {
        for seg in segs {
            if self.error.is_some() {
                return;
            }
            match seg {
                Segment::Serial(stmts) => self.exec_serial_epoch(stmts, env),
                Segment::Doall(l) => self.exec_doall_epoch(l, env),
                Segment::SerialLoop { l, body } => {
                    let lo = l.lo.eval(env);
                    let hi = l.hi.eval(env);
                    let mut v = lo;
                    while v <= hi {
                        env.bind(l.var, v);
                        self.exec_segments(body, env);
                        v += l.step;
                        if self.error.is_some() {
                            break;
                        }
                    }
                    env.unbind(l.var);
                }
                Segment::Branch {
                    s,
                    then_seg,
                    else_seg,
                } => {
                    if s.cond.eval(env) {
                        self.exec_segments(then_seg, env);
                    } else {
                        self.exec_segments(else_seg, env);
                    }
                }
                Segment::Call(callee) => {
                    let body = &self.program.proc(*callee).body;
                    let segs = self.shape.segment(body);
                    let mut callee_env = Env::new();
                    self.exec_segments(&segs, &mut callee_env);
                }
            }
        }
    }

    /// The context of one task on processor `proc`, emitting into `sink`.
    /// `race_stamp` is the DOALL epoch + 1 whose races the task checks
    /// (0: none), and `task` its iteration ordinal.
    fn task<'b>(
        &'b mut self,
        proc: u32,
        sink: &'b mut Vec<Event>,
        race_stamp: u32,
        task: u32,
    ) -> TaskCtx<'a, 'b> {
        TaskCtx {
            words: &mut self.words,
            layout: self.layout,
            program: self.program,
            site_kinds: self.site_kinds,
            private_base: self.private_base,
            replica_addr: self.layout.total_words() * (u64::from(proc) + 1),
            replica_record: self.layout.total_words() + self.private_words * u64::from(proc),
            sink,
            stats: &mut self.stats,
            race_stamp,
            task,
            race_found: None,
            critical: None,
            posts: &mut self.posts,
            waited: Vec::new(),
        }
    }

    fn exec_serial_epoch(&mut self, stmts: &[&'a Stmt], env: &mut Env) {
        let host_start = Instant::now();
        let epoch = Epoch(self.epochs.len() as u64);
        let mut per_proc: Vec<Vec<Event>> = vec![Vec::new(); self.opts.num_procs as usize];
        self.posts.clear();
        let serial_proc = if self.opts.rotate_serial {
            (epoch.0 % u64::from(self.opts.num_procs)) as u32
        } else {
            0
        };
        {
            let mut task = self.task(serial_proc, &mut per_proc[serial_proc as usize], 0, 0);
            for s in stmts {
                task.exec_stmt(s, env);
            }
        }
        self.stats.count_epoch(EpochExecKind::Serial);
        self.epochs.push(EpochEvents {
            epoch,
            kind: EpochExecKind::Serial,
            per_proc,
        });
        self.host.serial_nanos = self
            .host
            .serial_nanos
            .saturating_add(u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    fn exec_doall_epoch(&mut self, l: &'a tpi_ir::Loop, env: &mut Env) {
        let host_start = Instant::now();
        let epoch = Epoch(self.epochs.len() as u64);
        let lo = l.lo.eval(env);
        let hi = l.hi.eval(env);
        let mut values = Vec::new();
        let mut v = lo;
        while v <= hi {
            values.push(v);
            v += l.step;
        }
        let assignment = assign(
            &values,
            self.opts.num_procs,
            self.opts.policy,
            self.opts.seed,
            epoch.0,
        );
        let mut per_proc: Vec<Vec<Event>> = vec![Vec::new(); self.opts.num_procs as usize];
        self.posts.clear();
        let race_stamp = if self.opts.check_races {
            u32::try_from(epoch.0 + 1).expect("fewer than 2^32 epochs")
        } else {
            0
        };
        // Iterations run in a merged order that respects each processor's
        // schedule while globally favouring the smallest iteration value
        // (ties to the lower processor): for ascending per-processor
        // schedules this is ascending iteration order, which makes forward
        // post/wait dependences (doacross) functionally consistent. The
        // heap holds each processor's next iteration.
        let schedules = assignment.per_proc();
        let mut fronts = vec![0usize; schedules.len()];
        let mut next: BinaryHeap<Reverse<(i64, usize)>> = schedules
            .iter()
            .enumerate()
            .filter_map(|(p, q)| q.first().map(|&iter| Reverse((iter, p))))
            .collect();
        while let Some(Reverse((iter, p))) = next.pop() {
            fronts[p] += 1;
            if let Some(&after) = schedules[p].get(fronts[p]) {
                next.push(Reverse((after, p)));
            }
            let ordinal = u32::try_from((iter - lo) / l.step + 1)
                .expect("fewer than 2^32 iterations per DOALL");
            env.bind(l.var, iter);
            let mut task = self.task(p as u32, &mut per_proc[p], race_stamp, ordinal);
            for s in &l.body {
                task.exec_stmt(s, env);
            }
            if let Some(bad) = task.race_found {
                self.error = Some(TraceError::Race { addr: bad, epoch });
                env.unbind(l.var);
                return;
            }
        }
        env.unbind(l.var);
        let kind = EpochExecKind::Doall {
            iterations: values.len() as u64,
        };
        self.stats.count_epoch(kind);
        self.epochs.push(EpochEvents {
            epoch,
            kind,
            per_proc,
        });
        self.host.doall_nanos = self
            .host
            .doall_nanos
            .saturating_add(u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// Execution context of one task (a serial epoch or one DOALL iteration).
struct TaskCtx<'a, 'b> {
    words: &'b mut DenseTable<WordState>,
    layout: &'a MemLayout,
    program: &'a Program,
    site_kinds: &'a [Vec<ReadKind>],
    private_base: &'a [u64],
    /// Where this processor's private replica starts in the trace: each
    /// processor owns a disjoint replica region above the shared segment.
    replica_addr: u64,
    /// Where this processor's packed private replica starts among the
    /// table's indices.
    replica_record: u64,
    sink: &'b mut Vec<Event>,
    stats: &'b mut TraceStats,
    /// DOALL epoch + 1 whose races this task checks; 0 checks none (serial
    /// epochs, or race checking off).
    race_stamp: u32,
    /// The task's iteration ordinal (0 in serial epochs).
    task: u32,
    race_found: Option<WordAddr>,
    /// Lock currently held (inside a critical section).
    critical: Option<u32>,
    /// Posts performed so far this epoch: (event, index) -> posting
    /// iteration's ordinal.
    posts: &'b mut FastMap<(u32, i64), u32>,
    /// (event, index) pairs this task has waited on so far.
    waited: Vec<(u32, i64)>,
}

impl<'a> TaskCtx<'a, '_> {
    fn emit(&mut self, ev: Event) {
        self.stats.count(&ev);
        self.sink.push(ev);
    }

    fn exec_stmt(&mut self, s: &'a Stmt, env: &mut Env) {
        match s {
            Stmt::Assign(a) => {
                let kinds = &self.site_kinds[a.id.0 as usize];
                for (r, &kind) in a.reads.iter().zip(kinds) {
                    self.do_read(r, kind, env);
                }
                if a.cost > 0 {
                    self.emit(Event::Compute(a.cost));
                }
                if let Some(w) = &a.write {
                    self.do_write(w, env);
                }
            }
            Stmt::Loop(l) => {
                let lo = l.lo.eval(env);
                let hi = l.hi.eval(env);
                let mut v = lo;
                while v <= hi {
                    env.bind(l.var, v);
                    for s in &l.body {
                        self.exec_stmt(s, env);
                    }
                    v += l.step;
                }
                env.unbind(l.var);
            }
            Stmt::If(i) => {
                let body = if i.cond.eval(env) {
                    &i.then_body
                } else {
                    &i.else_body
                };
                for s in body {
                    self.exec_stmt(s, env);
                }
            }
            Stmt::Call(p) => {
                // Validator guarantees calls only appear in serial context;
                // a serial-only callee executes inline in this epoch.
                let mut callee_env = Env::new();
                for s in &self.program.proc(*p).body {
                    self.exec_stmt(s, &mut callee_env);
                }
            }
            Stmt::Critical(c) => {
                self.emit(Event::AcquireLock(c.lock.0));
                let prev = self.critical.replace(c.lock.0);
                for s in &c.body {
                    self.exec_stmt(s, env);
                }
                self.critical = prev;
                self.emit(Event::ReleaseLock(c.lock.0));
            }
            Stmt::Post { event, index } => {
                let k = index.eval(env);
                self.posts.insert((event.0, k), self.task);
                self.emit(Event::PostEvent {
                    event: event.0,
                    index: k,
                });
            }
            Stmt::Wait { event, index } => {
                let k = index.eval(env);
                self.waited.push((event.0, k));
                self.emit(Event::WaitEvent {
                    event: event.0,
                    index: k,
                });
            }
            Stmt::Doall(_) => {
                unreachable!("segmentation guarantees no DOALL inside an epoch body")
            }
        }
    }

    /// The word `r` addresses on this task's processor, the index of its
    /// record in the table, and whether it is shared.
    fn addr_of(&self, r: &ArrayRef, env: &Env) -> (WordAddr, u64, bool) {
        let addr = self
            .layout
            .addr_with(r.array, &r.subs, |s, extent| match s {
                Subscript::Affine(a) => a.eval(env),
                Subscript::Opaque(o) => o.eval(env, extent),
            });
        match self.layout.decl(r.array).sharing() {
            Sharing::Shared => (addr, addr.0, true),
            Sharing::Private => {
                let within = addr.0 - self.layout.base(r.array).0;
                let record = self.replica_record + self.private_base[r.array.0 as usize] + within;
                (WordAddr(addr.0 + self.replica_addr), record, false)
            }
        }
    }

    fn do_read(&mut self, r: &ArrayRef, site_kind: ReadKind, env: &Env) {
        let (addr, record, shared) = self.addr_of(r, env);
        let version = if shared && self.race_stamp != 0 {
            let word = self.words.get_mut(record);
            let prior = word.record(self.race_stamp, self.task, self.critical, false);
            let version = word.version;
            self.conflict(addr, prior);
            version
        } else {
            self.words.get(record).version
        };
        let kind = if !shared {
            ReadKind::Plain
        } else if self.critical.is_some() {
            ReadKind::Critical
        } else {
            site_kind
        };
        self.emit(Event::Read {
            addr,
            kind,
            version: u64::from(version),
        });
    }

    fn do_write(&mut self, w: &ArrayRef, env: &Env) {
        let (addr, record, shared) = self.addr_of(w, env);
        let word = self.words.get_mut(record);
        let prior = if shared && self.race_stamp != 0 {
            word.record(self.race_stamp, self.task, self.critical, true)
        } else {
            [0, 0]
        };
        word.version = word
            .version
            .checked_add(1)
            .expect("fewer than 2^32 writes to one word");
        let version = u64::from(word.version);
        self.conflict(addr, prior);
        if shared && self.critical.is_some() {
            self.emit(Event::CriticalWrite { addr, version });
        } else {
            self.emit(Event::Write { addr, version });
        }
    }

    /// Reports a conflict on `addr` with each iteration in `prior` (0 for
    /// none) as a race unless this task has synchronized with it: waited
    /// on an event that iteration posted — the doacross ordering of
    /// Section 5.
    fn conflict(&mut self, addr: WordAddr, prior: [u32; 2]) {
        let ordered = |p: u32| {
            p == 0
                || self
                    .waited
                    .iter()
                    .any(|key| self.posts.get(key) == Some(&p))
        };
        if !prior.into_iter().all(ordered) && self.race_found.is_none() {
            self.race_found = Some(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_ir::{subs, Cond, ProgramBuilder};

    fn trace_of(
        build: impl FnOnce(&mut ProgramBuilder) -> tpi_ir::ProcIdx,
        opts: &TraceOptions,
    ) -> Result<Trace, TraceError> {
        let mut p = ProgramBuilder::new();
        let main = build(&mut p);
        let prog = p.finish(main).expect("valid program");
        let marking = mark_program(&prog, &CompilerOptions::default());
        generate_trace(&prog, &marking, opts)
    }

    #[test]
    fn two_epoch_trace_shape() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 2));
                    f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 2));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 2);
        assert_eq!(t.stats.writes, 64);
        assert_eq!(t.stats.reads, 64);
        assert_eq!(t.stats.marked_reads, 64);
        assert_eq!(t.stats.iterations, 128);
        // Static block on 16 procs: each proc has 4 iterations.
        assert_eq!(t.epochs[0].per_proc[0].len(), 4 * 2); // compute + write
    }

    #[test]
    fn versions_record_write_then_read() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [16]);
                p.proc("main", |f| {
                    f.doall(0, 15, |i, f| f.store(a.at(subs![i]), vec![], 1));
                    f.doall(0, 15, |i, f| f.load(vec![a.at(subs![i])], 1));
                })
            },
            &TraceOptions {
                num_procs: 4,
                ..TraceOptions::default()
            },
        )
        .unwrap();
        for ev in t.epochs[1].per_proc.iter().flatten() {
            if let Event::Read { version, .. } = ev {
                assert_eq!(*version, 1, "read must observe the first write");
            }
        }
    }

    #[test]
    fn race_detected_on_cross_iteration_conflict() {
        let err = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    // Every iteration writes A(0): an output race.
                    f.doall(0, 63, |_i, f| f.store(a.at(subs![0]), vec![], 1));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Race { .. }));
        assert!(err.to_string().contains("race"));
    }

    #[test]
    fn read_write_race_detected() {
        let err = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    // iteration i reads A(i+1) while iteration i+1 writes it.
                    f.doall(0, 62, |i, f| {
                        f.store(a.at(subs![i]), vec![a.at(subs![i + 1])], 1)
                    });
                })
            },
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Race { .. }));
    }

    #[test]
    fn concurrent_reads_are_not_a_race() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [1]);
                let b = p.shared("B", [64]);
                p.proc("main", |f| {
                    f.store(a.at(subs![0]), vec![], 1);
                    // every iteration reads the same broadcast word: fine.
                    f.doall(0, 63, |i, f| {
                        f.store(b.at(subs![i]), vec![a.at(subs![0])], 1)
                    });
                })
            },
            &TraceOptions::default(),
        );
        assert!(t.is_ok());
    }

    #[test]
    fn private_arrays_are_replicated_per_proc() {
        let t = trace_of(
            |p| {
                let w = p.private("W", [16]);
                p.proc("main", |f| {
                    // Every iteration writes W(i%16)... use i directly over
                    // 16 iterations so all procs hit the same *logical*
                    // indices without racing (private data).
                    f.doall(0, 15, |i, f| f.store(w.at(subs![i]), vec![], 1));
                })
            },
            &TraceOptions {
                num_procs: 4,
                ..TraceOptions::default()
            },
        )
        .unwrap();
        // Collect write addresses per proc; the address sets must be
        // disjoint because each proc has its own replica region.
        let mut per_proc_addrs: Vec<Vec<u64>> = Vec::new();
        for evs in &t.epochs[0].per_proc {
            let addrs: Vec<u64> = evs
                .iter()
                .filter_map(|e| match e {
                    Event::Write { addr, .. } => Some(addr.0),
                    _ => None,
                })
                .collect();
            per_proc_addrs.push(addrs);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                for a in &per_proc_addrs[i] {
                    assert!(
                        !per_proc_addrs[j].contains(a),
                        "private replicas must be disjoint"
                    );
                }
            }
        }
    }

    #[test]
    fn private_versions_count_each_replica_alone() {
        // Private arrays interleave with shared ones in the layout; every
        // processor's replica of each must keep its own version count.
        let t = trace_of(
            |p| {
                let a = p.shared("A", [8]);
                let w1 = p.private("W1", [5]);
                let b = p.shared("B", [8]);
                let w2 = p.private("W2", [3]);
                p.proc("main", |f| {
                    for _ in 0..2 {
                        f.doall(0, 7, |i, f| {
                            f.serial(0, 4, |j, f| {
                                f.store(w1.at(subs![j]), vec![w1.at(subs![j])], 1)
                            });
                            f.serial(0, 2, |j, f| {
                                f.store(w2.at(subs![j]), vec![w2.at(subs![j]), a.at(subs![i])], 1)
                            });
                            f.store(b.at(subs![i]), vec![], 1);
                        });
                    }
                })
            },
            &TraceOptions {
                num_procs: 3,
                ..TraceOptions::default()
            },
        )
        .unwrap();
        let span = t.layout.total_words();
        let mut writes: std::collections::HashMap<u64, u64> = Default::default();
        for p in 0..3 {
            for ev in t.epochs.iter().flat_map(|e| &e.per_proc[p]) {
                match *ev {
                    Event::Read { addr, version, .. } if addr.0 >= span => {
                        assert_eq!(version, writes.get(&addr.0).copied().unwrap_or(0));
                    }
                    Event::Write { addr, version } if addr.0 >= span => {
                        let n = writes.entry(addr.0).or_default();
                        *n += 1;
                        assert_eq!(version, *n, "{addr} on processor {p}");
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(writes.len(), 3 * (5 + 3), "every replica word was written");
    }

    #[test]
    fn serial_epochs_run_on_proc_zero() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [8]);
                p.proc("main", |f| {
                    f.serial(0, 7, |i, f| f.store(a.at(subs![i]), vec![], 1));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 1);
        assert!(!t.epochs[0].per_proc[0].is_empty());
        for p in 1..16 {
            assert!(t.epochs[0].per_proc[p].is_empty());
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let opts = TraceOptions {
            policy: SchedulePolicy::Dynamic { chunk: 2 },
            ..TraceOptions::default()
        };
        let build = |p: &mut ProgramBuilder| {
            let a = p.shared("A", [128]);
            p.proc("main", |f| {
                f.doall(0, 127, |i, f| f.store(a.at(subs![i]), vec![], 1));
                f.doall(0, 127, |i, f| f.load(vec![a.at(subs![i])], 1));
            })
        };
        let t1 = trace_of(build, &opts).unwrap();
        let t2 = trace_of(build, &opts).unwrap();
        for (e1, e2) in t1.epochs.iter().zip(&t2.epochs) {
            assert_eq!(e1.per_proc, e2.per_proc);
        }
    }

    #[test]
    fn table_pages_stay_under_the_mmap_threshold() {
        let page = std::mem::size_of::<WordState>() * tpi_mem::dense::PAGE_ENTRIES;
        assert!(page < 128 << 10, "{page}-byte pages");
    }

    /// Every write event of `t`'s epoch `epoch`, as `(addr, version)`.
    fn writes_of(t: &Trace, epoch: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = t.epochs[epoch]
            .per_proc
            .iter()
            .flatten()
            .filter_map(|e| match e {
                Event::Write { addr, version } => Some((addr.0, *version)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn race_state_resets_between_doall_epochs() {
        // A(1) is written by the second iteration of epoch 0 and by the
        // first of epoch 1: two different tasks, but in different epochs.
        let t = trace_of(
            |p| {
                let a = p.shared("A", [16]);
                p.proc("main", |f| {
                    f.doall(0, 15, |i, f| f.store(a.at(subs![i]), vec![], 1));
                    f.doall(0, 14, |i, f| {
                        f.store(a.at(subs![i + 1]), vec![a.at(subs![i + 1])], 1)
                    });
                })
            },
            &TraceOptions::default(),
        )
        .expect("conflicts across epochs are not races");
        // Versions carry across the epoch that reset the race state.
        assert_eq!(
            writes_of(&t, 1),
            (1..16).map(|w| (w, 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lock_serialized_conflicts_are_allowed() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [1]);
                let lock = p.lock();
                p.proc("main", |f| {
                    f.doall(0, 15, |_i, f| {
                        f.critical(lock, |f| f.store(a.at(subs![0]), vec![a.at(subs![0])], 1))
                    });
                })
            },
            &TraceOptions::default(),
        )
        .expect("every access is critical under one lock");
        assert_eq!(t.stats.critical_writes, 16);
    }

    #[test]
    fn mixed_lock_contexts_race() {
        let critical_then_plain = |p: &mut ProgramBuilder| {
            let a = p.shared("A", [1]);
            let lock = p.lock();
            p.proc("main", |f| {
                f.doall(0, 15, |_i, f| {
                    f.critical(lock, |f| f.store(a.at(subs![0]), vec![], 1));
                    f.load(vec![a.at(subs![0])], 1);
                })
            })
        };
        let two_locks = |p: &mut ProgramBuilder| {
            let a = p.shared("A", [1]);
            let (l1, l2) = (p.lock(), p.lock());
            p.proc("main", |f| {
                f.doall(0, 15, |i, f| {
                    f.if_else(
                        Cond::EveryN {
                            var: i,
                            modulus: 2,
                            phase: 0,
                        },
                        |f| f.critical(l1, |f| f.store(a.at(subs![0]), vec![], 1)),
                        |f| f.critical(l2, |f| f.store(a.at(subs![0]), vec![], 1)),
                    )
                })
            })
        };
        for build in [
            &critical_then_plain as &dyn Fn(&mut ProgramBuilder) -> tpi_ir::ProcIdx,
            &two_locks,
        ] {
            let err = trace_of(build, &TraceOptions::default()).unwrap_err();
            assert_eq!(
                err,
                TraceError::Race {
                    addr: WordAddr(0),
                    epoch: Epoch(0)
                }
            );
        }
    }

    /// A doacross chain over iterations 5, 8, ..., 50: each iteration but
    /// the first reads the word its predecessor wrote, after waiting for
    /// the predecessor's post when `ordered`.
    fn strided_chain(p: &mut ProgramBuilder, ordered: bool) -> tpi_ir::ProcIdx {
        let x = p.shared("X", [64]);
        let ev = p.event();
        p.proc("main", |f| {
            f.doall_step(5, 50, 3, |i, f| {
                f.if_else(
                    Cond::EveryN {
                        var: i,
                        modulus: i64::MAX,
                        phase: 5,
                    },
                    |f| f.store(x.at(subs![i]), vec![], 1),
                    |f| {
                        if ordered {
                            f.wait(ev, i - 3);
                        }
                        f.store(x.at(subs![i]), vec![x.at(subs![i - 3])], 1);
                    },
                );
                f.post(ev, i);
            })
        })
    }

    #[test]
    fn strided_doacross_is_ordered_by_post_and_wait() {
        let opts = TraceOptions {
            num_procs: 4,
            ..TraceOptions::default()
        };
        let t = trace_of(|p| strided_chain(p, true), &opts).expect("the chain is ordered");
        assert_eq!(t.stats.iterations, 16);
        assert_eq!(t.stats.posts, 16);
        // Unordered, the second iteration's read of the first one's write
        // is the first conflict.
        let err = trace_of(|p| strided_chain(p, false), &opts).unwrap_err();
        assert_eq!(
            err,
            TraceError::Race {
                addr: WordAddr(5),
                epoch: Epoch(0)
            }
        );
    }

    /// Eight iterations that each write X(0), reading it first when
    /// `read_first`; with `ordered`, iteration i > 0 waits for i − 1's
    /// post before its access.
    fn update_chain(p: &mut ProgramBuilder, ordered: bool, read_first: bool) -> tpi_ir::ProcIdx {
        let x = p.shared("X", [8]);
        let ev = p.event();
        p.proc("main", |f| {
            f.doall(0, 7, |i, f| {
                let reads = if read_first {
                    vec![x.at(subs![0])]
                } else {
                    vec![]
                };
                f.if_else(
                    Cond::EveryN {
                        var: i,
                        modulus: i64::MAX,
                        phase: 0,
                    },
                    |f| f.store(x.at(subs![0]), reads.clone(), 1),
                    |f| {
                        if ordered {
                            f.wait(ev, i - 1);
                        }
                        f.store(x.at(subs![0]), reads.clone(), 1);
                    },
                );
                f.post(ev, i);
            })
        })
    }

    #[test]
    fn a_write_is_ordered_after_the_previous_writer() {
        let opts = TraceOptions {
            num_procs: 4,
            ..TraceOptions::default()
        };
        let t = trace_of(|p| update_chain(p, true, false), &opts)
            .expect("post/wait orders each write after the last");
        assert_eq!(
            writes_of(&t, 0),
            (1..=8).map(|v| (0, v)).collect::<Vec<_>>()
        );
        // Without the waits the second write races with the first.
        let err = trace_of(|p| update_chain(p, false, false), &opts).unwrap_err();
        assert_eq!(
            err,
            TraceError::Race {
                addr: WordAddr(0),
                epoch: Epoch(0)
            }
        );
    }

    #[test]
    fn a_read_then_write_chain_is_reported_without_transitive_order() {
        // Each iteration reads X(0) and writes it after waiting for its
        // predecessor. The third write follows reads by two iterations,
        // and the detector keeps only the first reader, so it cannot see
        // that the chain orders them all (`TraceOptions::check_races`).
        let opts = TraceOptions {
            num_procs: 4,
            ..TraceOptions::default()
        };
        for ordered in [true, false] {
            let err = trace_of(|p| update_chain(p, ordered, true), &opts).unwrap_err();
            assert_eq!(
                err,
                TraceError::Race {
                    addr: WordAddr(0),
                    epoch: Epoch(0)
                }
            );
        }
    }

    #[test]
    fn unchecked_races_still_trace() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    f.doall(0, 63, |_i, f| f.store(a.at(subs![0]), vec![], 1));
                })
            },
            &TraceOptions {
                check_races: false,
                ..TraceOptions::default()
            },
        )
        .expect("race checking is off");
        assert_eq!(
            writes_of(&t, 0),
            (1..=64).map(|v| (0, v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_first_conflict_in_execution_order_is_reported() {
        // Epoch 0 is clean. In epoch 1 the second iteration conflicts
        // first on B(7), then on A(3), which lies at a lower address.
        let err = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                let b = p.shared("B", [64]);
                p.proc("main", |f| {
                    f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
                    f.doall(0, 15, |_i, f| {
                        f.store(b.at(subs![7]), vec![], 1);
                        f.store(a.at(subs![3]), vec![], 1);
                    });
                })
            },
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            TraceError::Race {
                addr: WordAddr(64 + 7),
                epoch: Epoch(1)
            }
        );
    }

    #[test]
    fn serial_loop_of_doalls_counts_epochs() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [32]);
                p.proc("main", |f| {
                    f.serial(0, 4, |_t, f| {
                        f.doall(0, 31, |i, f| {
                            f.store(a.at(subs![i]), vec![a.at(subs![i])], 1)
                        });
                    });
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 5);
        assert_eq!(t.epochs[4].epoch, Epoch(4));
    }
}
