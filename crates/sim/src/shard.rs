//! The epoch phase protocol: one replay core for serial and shard-parallel
//! trace replay.
//!
//! [`crate::run_trace`] is this protocol's one-shard case.
//! [`run_trace_sharded`] partitions the processors across `S` engine
//! *shards* (`owner(p) = p % S`) and replays each shard's processors
//! independently within an epoch, synchronizing only at epoch boundaries —
//! exactly the barrier discipline the simulated machine itself uses.
//!
//! # Three exact replay strategies
//!
//! The reference order within an epoch is the min-clock order: the
//! processor with the smallest `(clock, index)` issues the next event. Each
//! epoch's replay phase reproduces it with one of three strategies, chosen
//! before the run from two facts — whether the epoch holds lock or
//! post/wait events, and whether the engine is
//! [`CoherenceEngine::shard_safe`]:
//!
//! * **Flat** — a sync-free epoch on a shard-safe engine replays each
//!   processor's stream straight through, with no ordering at all.
//! * **Heap** — a sync-free epoch on an order-sensitive engine keeps a
//!   binary min-heap of `(clock, processor)`. The popped processor keeps
//!   issuing while it stays below the heap's top, and past the top while
//!   its next event *commutes* with the rest of the epoch (below); then it
//!   trades places with the top, at `O(log P)` per processor switch
//!   instead of `O(P)` per event.
//! * **Scan** — a sync-ful epoch scans every active processor's clock per
//!   event, skipping processors blocked on a held lock or an unposted
//!   event. [`crate::run_trace_reference`] replays every epoch this way.
//!
//! # Run-ahead: why the heap's reordering is exact
//!
//! A compute event makes no engine call, and an access may go ahead when
//! [`CoherenceEngine::commutes`] says it commutes with every access any
//! other processor makes in the epoch. The engine answers from an
//! [`EpochRefs`] table, filled in one pass over the epoch's events on the
//! epoch's first would-be switch, of which processor references each
//! line. The rules (in `tpi-proto`):
//!
//! * TARDIS: no other processor references the line;
//! * HW, LL and HYB: the same, and no other processor references another
//!   line resident in the access's cache set; for a miss or a write (an
//!   upgrade, a HYB update push), no other processor holds the line.
//!
//! An access reads and writes its own processor's state, the directory,
//! timestamp and version records of its line and of the lines it
//! displaces, and commutative accumulators (traffic and op counters).
//! Message latency depends only on the load fixed at the last boundary.
//! Another processor reaches the first two kinds only through lines it
//! references, holds or displaces, and the rules exclude those for the
//! rest of the epoch (the others can only drop the runner's holdings,
//! never add to them), so the reordered calls touch disjoint state. Two
//! accesses that are both refused issue in min-clock order, so every
//! inversion of the scan's order pairs a declared-commuting access with a
//! later one of another processor; swapping such pairs back one at a time
//! recovers the scan's order with every outcome unchanged. Each
//! processor's calls stay in program order at the scan's clocks, and
//! every [`SimResult`] is byte-identical. A shard-safe engine is the
//! special case in which every access commutes, which the flat strategy
//! exploits without any table.
//!
//! The reference pins in `crates/sim/tests/reference.rs`, the `replay`
//! class of `tpi-fuzz` (with its `hw-commutes-always` sabotage) and
//! `tpi-model`'s commutation check hold every rule to this.
//!
//! # Why flat is exact, not approximate
//!
//! A scheme may opt in by returning `true` from
//! [`CoherenceEngine::shard_safe`]. The contract is that every per-event
//! outcome (stall, miss class, traffic) is a pure function of
//!
//! 1. per-processor state (caches, write buffers, timetags),
//! 2. global state **committed at the previous epoch boundary** (memory
//!    versions under the write-buffer-drain visibility rule, network load
//!    factor `rho`), and
//! 3. commutative accumulators (traffic word counts, op counters),
//!
//! and never of the mid-epoch interleaving of *other* processors. Under
//! that contract, replaying each processor's stream flat produces
//! bit-identical per-processor counters and clocks, on one engine or on
//! several, and summing the commutative accumulators reproduces the
//! reference totals exactly. The reference pins in `crates/sim/tests` and
//! the `replay` class of `tpi-fuzz` hold every scheme to this. Schemes
//! whose protocol state is order-sensitive even for plain reads and writes
//! (directory sharer sets, Tardis leases) report `shard_safe() == false`:
//! they replay on one engine, through the heap.
//!
//! Each shard holds a full-width engine replica: processor `p`'s cache
//! only ever has content on `owner(p)`'s replica, so per-processor results
//! are read from the owner (*owner-select*) while traffic and operation
//! counters are summed across replicas.
//!
//! # Epoch phase protocol
//!
//! Per epoch, shards run four phases separated by barriers:
//!
//! * **P1 replay** — each shard replays its owned processors flat, or the
//!   coordinator replays the whole epoch in order (heap or scan), routing
//!   each engine call to the owner's replica.
//! * **C1 clock merge** — the coordinator assembles the full end-of-epoch
//!   clock vector by owner-select.
//! * **P2 boundary** — each shard runs
//!   [`CoherenceEngine::epoch_boundary`] with the *full* clock vector,
//!   drains its committed version updates, and reports its epoch traffic.
//! * **C2 + P3 finish** — the coordinator computes the epoch end time and
//!   total traffic; every shard then applies all shards' version updates
//!   (a commutative, idempotent max-merge) and refreshes its network load
//!   estimate from the merged totals, so every replica enters the next
//!   epoch with an identical view of global state.
//!
//! Execution is either inline (one thread walks the shards) or threaded
//! (one OS thread per shard with [`std::sync::Barrier`] separating the
//! phases).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use tpi_mem::{Cycle, ProcId};
use tpi_net::TrafficClass;
use tpi_proto::{build_engine, CoherenceEngine, EngineConfig, EpochRefs, SchemeId};
use tpi_trace::{Event, Trace};

use crate::run::{elapsed_nanos_since, miss_by_array_table, EpochProfile};
use crate::{run_trace, SimHostProfile, SimOptions, SimResult};

/// How the shards of a sharded run execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardExec {
    /// Threads when the host has more than one available core, inline
    /// otherwise. The results are bit-identical either way.
    #[default]
    Auto,
    /// One thread walks all shards phase by phase (no OS threads).
    Inline,
    /// One OS thread per shard, barrier-synchronized per phase.
    Threads,
}

/// Knobs for [`run_trace_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Requested shard count; clamped to `1..=procs`. `1` (the default)
    /// replays serially.
    pub shards: usize,
    /// Execution strategy (results are identical for all choices).
    pub exec: ShardExec,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            exec: ShardExec::Auto,
        }
    }
}

/// Replays `trace` on `shards.shards` engine shards, merging
/// deterministically into the same [`SimResult`] the serial
/// [`run_trace`] produces (host wall-clock fields excepted).
///
/// Falls back to the serial path when one shard is requested or when the
/// scheme is not [`CoherenceEngine::shard_safe`].
///
/// # Panics
///
/// Panics if the trace was generated for a different processor count than
/// `cfg.procs`, or on a malformed trace (lock deadlock), as [`run_trace`]
/// does.
#[must_use]
pub fn run_trace_sharded(
    trace: &Trace,
    scheme: SchemeId,
    cfg: &EngineConfig,
    opts: &SimOptions,
    shards: &ShardOptions,
) -> SimResult {
    run_trace_sharded_with(trace, || build_engine(scheme, cfg.clone()), opts, shards)
}

/// [`run_trace_sharded`] over engines from `build`, which is called once
/// per shard (once in all when the run falls back to the serial path).
/// Differential checkers use it to shard wrapped engines.
///
/// # Panics
///
/// As [`run_trace`].
#[must_use]
pub fn run_trace_sharded_with(
    trace: &Trace,
    mut build: impl FnMut() -> Box<dyn CoherenceEngine>,
    opts: &SimOptions,
    shards: &ShardOptions,
) -> SimResult {
    let procs = trace.num_procs as usize;
    let s = shards.shards.clamp(1, procs.max(1));
    let mut first = build();
    if s <= 1 || !first.shard_safe() {
        return run_trace(trace, first.as_mut(), opts);
    }
    let mut engines = vec![first];
    engines.extend((1..s).map(|_| build()));
    let states: Vec<ShardState> = engines
        .iter_mut()
        .map(|engine| {
            engine.enable_shard_tracking();
            ShardState::new(engine.as_mut(), trace)
        })
        .collect();
    let threaded = match shards.exec {
        ShardExec::Inline => false,
        ShardExec::Threads => true,
        ShardExec::Auto => std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
    };
    replay(trace, opts, Plan::build(trace, s, true), states, threaded)
}

/// Replays `trace` through `engine` as the protocol's one shard; with
/// `reference` set, every epoch takes the scan.
pub(crate) fn run_one_shard(
    trace: &Trace,
    engine: &mut dyn CoherenceEngine,
    opts: &SimOptions,
    reference: bool,
) -> SimResult {
    let mut plan = Plan::build(trace, 1, engine.shard_safe());
    if reference {
        plan.replay.fill(Replay::Scan);
    }
    let states = vec![ShardState::new(engine, trace)];
    replay(trace, opts, plan, states, false)
}

/// Runs the phase protocol over `states` and merges the shards' result.
fn replay(
    trace: &Trace,
    opts: &SimOptions,
    plan: Plan,
    mut states: Vec<ShardState>,
    threaded: bool,
) -> SimResult {
    assert_eq!(
        trace.num_procs as usize,
        states[0].engine.stats().per_proc().len(),
        "trace and engine disagree on processor count"
    );
    let mut coord = Coord::new(trace.num_procs as usize, trace.epochs.len());
    if threaded {
        run_threaded(trace, opts, &plan, &mut states, &mut coord);
    } else {
        run_inline(trace, opts, &plan, &mut states, &mut coord);
    }
    merge_result(trace, &plan, &states, coord)
}

// ---------------------------------------------------------------------------
// Precomputed replay plan
// ---------------------------------------------------------------------------

/// How P1 replays one epoch (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Replay {
    Flat,
    Heap,
    Scan,
}

/// Everything derivable from the trace and the engine's shard-safety,
/// computed once.
struct Plan {
    /// Shard count after clamping.
    shards: usize,
    /// `owner[p]` = shard whose engine replica holds processor `p`.
    owner: Vec<usize>,
    /// P1 strategy per epoch.
    replay: Vec<Replay>,
    /// Highest lock id in the trace (locks never span epochs).
    max_lock: Option<u32>,
    /// Dense ids for every distinct post/wait `(event, index)` pair.
    sync_pairs: Vec<(u32, i64)>,
    /// Private replicas live at `base + k * span`; a miss folds back to
    /// its declared array by `addr % span`.
    span: u64,
}

impl Plan {
    fn build(trace: &Trace, shards: usize, shard_safe: bool) -> Plan {
        let procs = trace.num_procs as usize;
        let owner = (0..procs).map(|p| p % shards).collect();
        let sync_free = if shard_safe {
            Replay::Flat
        } else {
            Replay::Heap
        };
        let mut replay = Vec::with_capacity(trace.epochs.len());
        let mut max_lock: Option<u32> = None;
        let mut sync_pairs: Vec<(u32, i64)> = Vec::new();
        for epoch in &trace.epochs {
            let mut free = true;
            for ev in epoch.per_proc.iter().flatten() {
                match ev {
                    Event::AcquireLock(l) | Event::ReleaseLock(l) => {
                        free = false;
                        max_lock = Some(max_lock.map_or(*l, |m| m.max(*l)));
                    }
                    Event::PostEvent { event, index } | Event::WaitEvent { event, index } => {
                        free = false;
                        sync_pairs.push((*event, *index));
                    }
                    _ => {}
                }
            }
            replay.push(if free { sync_free } else { Replay::Scan });
        }
        sync_pairs.sort_unstable();
        sync_pairs.dedup();
        Plan {
            shards,
            owner,
            replay,
            max_lock,
            sync_pairs,
            span: trace.layout.total_words().max(1),
        }
    }

    fn sync_id(&self, event: u32, index: i64) -> usize {
        self.sync_pairs
            .binary_search(&(event, index))
            .expect("every post/wait pair was pre-scanned")
    }
}

// ---------------------------------------------------------------------------
// Per-shard and coordinator state
// ---------------------------------------------------------------------------

/// One shard: an engine replica plus its per-epoch scratch and run-long
/// accumulators.
struct ShardState<'e> {
    engine: &'e mut dyn CoherenceEngine,
    /// Full-width clock vector; only owned entries are meaningful after a
    /// flat replay (ordered replays write the coordinator's vector
    /// directly).
    clocks: Vec<Cycle>,
    /// Boundary stalls from the last `epoch_boundary` call.
    stalls: Vec<Cycle>,
    /// Version updates committed by this shard at the last boundary.
    updates: Vec<(u64, u64)>,
    /// Network words this shard recorded during the last epoch.
    words: u64,
    /// Cumulative read misses over owned processors (for epoch deltas).
    miss_prev: u64,
    /// Read misses owned processors took during the last epoch.
    miss_delta: u64,
    /// Trace events issued on this shard's engine.
    events: u64,
    /// Heap replays' processor switches: times the running processor
    /// yielded to the heap's top before its stream ended.
    switches: u64,
    /// Events the heap replay issued ahead of a processor with a smaller
    /// clock because they commute with the rest of the epoch.
    run_ahead: u64,
    /// Per-array read-miss tally, dense by `ArrayId`.
    array_misses: Vec<u64>,
    replay_nanos: u64,
    boundary_nanos: u64,
}

impl<'e> ShardState<'e> {
    fn new(engine: &'e mut dyn CoherenceEngine, trace: &Trace) -> Self {
        ShardState {
            engine,
            clocks: vec![0; trace.num_procs as usize],
            stalls: Vec::new(),
            updates: Vec::new(),
            words: 0,
            miss_prev: 0,
            miss_delta: 0,
            events: 0,
            switches: 0,
            run_ahead: 0,
            array_misses: vec![0; trace.layout.decls().len()],
            replay_nanos: 0,
            boundary_nanos: 0,
        }
    }

    /// Sum of read misses over this shard's owned processors.
    fn owned_read_misses(&self, plan: &Plan, me: usize) -> u64 {
        self.engine
            .stats()
            .per_proc()
            .iter()
            .skip(me)
            .step_by(plan.shards)
            .map(tpi_proto::ProcStats::read_misses)
            .sum()
    }

    /// Issues processor `p`'s non-synchronization event `ev` at local time
    /// `now` and returns the cycles it took.
    #[inline]
    fn access(&mut self, trace: &Trace, plan: &Plan, p: usize, ev: &Event, now: Cycle) -> Cycle {
        let proc = ProcId(p as u32);
        match ev {
            Event::Compute(c) => Cycle::from(*c),
            Event::Read {
                addr,
                kind,
                version,
            } => {
                let outcome = self.engine.read(proc, *addr, *kind, *version, now);
                if outcome.miss.is_some() {
                    let folded = tpi_mem::WordAddr(addr.0 % plan.span);
                    if let Some(id) = trace.layout.array_of(folded) {
                        self.array_misses[id.0 as usize] += 1;
                    }
                }
                outcome.stall
            }
            Event::Write { addr, version } => self.engine.write(proc, *addr, *version, now),
            Event::CriticalWrite { addr, version } => {
                self.engine.write_critical(proc, *addr, *version, now)
            }
            // Plan::build sends every epoch holding one to the scan.
            Event::AcquireLock(_)
            | Event::ReleaseLock(_)
            | Event::PostEvent { .. }
            | Event::WaitEvent { .. } => unreachable!("sync event outside the scan"),
        }
    }

    /// Whether processor `p` may issue `ev` ahead of processors with
    /// smaller clocks: a compute makes no engine call, and an access
    /// qualifies when the engine declares it commuting with the rest of
    /// the epoch that `refs` records.
    #[inline]
    fn commutes(&self, p: usize, ev: &Event, refs: &EpochRefs) -> bool {
        let proc = ProcId(p as u32);
        match ev {
            Event::Compute(_) => true,
            Event::Read { addr, .. } => self.engine.commutes(proc, *addr, false, refs),
            Event::Write { addr, .. } | Event::CriticalWrite { addr, .. } => {
                self.engine.commutes(proc, *addr, true, refs)
            }
            Event::AcquireLock(_)
            | Event::ReleaseLock(_)
            | Event::PostEvent { .. }
            | Event::WaitEvent { .. } => unreachable!("sync event outside the scan"),
        }
    }
}

/// State only the coordinator (shard 0's thread, or the inline driver)
/// touches: merged clocks and the run-long global accounting.
struct Coord {
    /// Merged end-of-epoch clock vector (full width).
    clocks: Vec<Cycle>,
    /// Global simulated time at the last completed epoch boundary.
    global: Cycle,
    busy: Vec<Cycle>,
    profile: Vec<EpochProfile>,
    lock_acquires: u64,
    lock_wait_cycles: Cycle,
    /// All shards' version updates for the current boundary, concatenated
    /// in shard order (the merge is commutative; the order is fixed anyway
    /// for determinism's sake).
    updates: Vec<(u64, u64)>,
    /// Total network words across shards for the current epoch.
    total_words: u64,
    /// Wall cycles of the current epoch including boundary and setup.
    elapsed: Cycle,
}

impl Coord {
    fn new(procs: usize, epochs: usize) -> Coord {
        Coord {
            clocks: vec![0; procs],
            global: 0,
            busy: vec![0; procs],
            profile: Vec::with_capacity(epochs),
            lock_acquires: 0,
            lock_wait_cycles: 0,
            updates: Vec::new(),
            total_words: 0,
            elapsed: 0,
        }
    }
}

/// The ordered strategies' tables, allocated once per run and reset per
/// epoch (stamping replaces per-epoch clears of the post tables).
struct Sched {
    idx: Vec<usize>,
    blocked_on: Vec<Option<Block>>,
    active: Vec<usize>,
    lock_holder: Vec<Option<usize>>,
    posted_at: Vec<Cycle>,
    posted_stamp: Vec<u64>,
    epoch_stamp: u64,
    /// The heap strategy's ready queue: `(clock, processor, next event)`.
    heap: BinaryHeap<Reverse<(Cycle, usize, usize)>>,
    /// The heap strategy's record of which processor references each
    /// line, made on the epoch's first would-be switch and reused across
    /// epochs.
    refs: Option<EpochRefs>,
}

#[derive(Clone, Copy, PartialEq)]
enum Block {
    /// Waiting for this lock id to free.
    Lock(u32),
    /// Waiting for this dense sync-pair id to be posted.
    Event(usize),
}

impl Sched {
    fn new(plan: &Plan, procs: usize) -> Sched {
        Sched {
            idx: vec![0; procs],
            blocked_on: vec![None; procs],
            active: Vec::with_capacity(procs),
            lock_holder: vec![None; plan.max_lock.map_or(0, |m| m as usize + 1)],
            posted_at: vec![0; plan.sync_pairs.len()],
            posted_stamp: vec![0; plan.sync_pairs.len()],
            epoch_stamp: 0,
            heap: BinaryHeap::with_capacity(procs),
            refs: None,
        }
    }
}

/// Records every access of `epoch` in `refs`, which starts the epoch
/// empty.
fn record_refs(refs: &mut EpochRefs, epoch: &tpi_trace::EpochEvents) {
    refs.begin_epoch();
    for (p, stream) in epoch.per_proc.iter().enumerate() {
        let proc = ProcId(p as u32);
        for ev in stream {
            if let Event::Read { addr, .. }
            | Event::Write { addr, .. }
            | Event::CriticalWrite { addr, .. } = ev
            {
                refs.record(proc, *addr);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Phase functions (shared by the inline and threaded drivers)
// ---------------------------------------------------------------------------

/// P1, flat: replay shard `me`'s owned processors one stream at a time.
fn replay_flat(trace: &Trace, e: usize, t0: Cycle, plan: &Plan, me: usize, st: &mut ShardState) {
    let start = Instant::now();
    let owned = trace.epochs[e].per_proc.iter().enumerate();
    for (p, stream) in owned.skip(me).step_by(plan.shards) {
        let mut now = t0;
        for ev in stream {
            now += st.access(trace, plan, p, ev, now);
        }
        st.events += stream.len() as u64;
        st.clocks[p] = now;
    }
    st.replay_nanos = st.replay_nanos.saturating_add(elapsed_nanos_since(start));
}

/// P1 and C1 on the coordinator: merge the flat shards' clocks, or replay
/// the whole epoch in min-clock order into `coord.clocks`.
fn replay_ordered(
    trace: &Trace,
    e: usize,
    t0: Cycle,
    plan: &Plan,
    sched: &mut Sched,
    shards: &mut [&mut ShardState],
    coord: &mut Coord,
) {
    let start = Instant::now();
    match plan.replay[e] {
        Replay::Flat => {
            for (p, c) in coord.clocks.iter_mut().enumerate() {
                *c = shards[plan.owner[p]].clocks[p];
            }
        }
        // Order-sensitive engines never shard: the heap drives shard 0.
        Replay::Heap => replay_heap(trace, e, t0, plan, sched, shards[0], &mut coord.clocks),
        Replay::Scan => replay_scan(trace, e, t0, plan, sched, shards, coord),
    }
    shards[0].replay_nanos = shards[0]
        .replay_nanos
        .saturating_add(elapsed_nanos_since(start));
}

/// Heap strategy for a sync-free epoch: the running processor keeps
/// issuing while its `(clock, index)` stays below the heap's top, and past
/// it while its next event commutes with the rest of the epoch (see the
/// module docs); otherwise it swaps in for the top. Zero-cycle events and
/// clock ties resolve exactly as under the scan, because the key order is
/// the scan's order.
fn replay_heap(
    trace: &Trace,
    e: usize,
    t0: Cycle,
    plan: &Plan,
    sched: &mut Sched,
    st: &mut ShardState,
    clocks: &mut [Cycle],
) {
    let epoch = &trace.epochs[e];
    clocks.fill(t0);
    let Sched { heap, refs, .. } = sched;
    heap.clear();
    for (p, stream) in epoch.per_proc.iter().enumerate() {
        if !stream.is_empty() {
            heap.push(Reverse((t0, p, 0)));
        }
    }
    // Built on the first would-be switch: an epoch with one busy
    // processor never needs it.
    let mut recorded = false;
    let mut running = heap.pop();
    while let Some(Reverse((mut now, p, mut i))) = running {
        let stream = &epoch.per_proc[p];
        running = loop {
            now += st.access(trace, plan, p, &stream[i], now);
            i += 1;
            st.events += 1;
            if i == stream.len() {
                clocks[p] = now;
                break heap.pop();
            }
            if let Some(mut top) = heap.peek_mut() {
                let Reverse((c, q, _)) = *top;
                if (c, q) < (now, p) {
                    let refs = refs.get_or_insert_with(|| {
                        EpochRefs::new(trace.num_procs, plan.span, trace.layout.geometry())
                    });
                    if !recorded {
                        record_refs(refs, epoch);
                        recorded = true;
                    }
                    if !st.commutes(p, &stream[i], refs) {
                        st.switches += 1;
                        break Some(std::mem::replace(&mut *top, Reverse((now, p, i))));
                    }
                    st.run_ahead += 1;
                }
            }
        };
    }
}

/// Scan strategy: per event, the eligible active processor with the
/// smallest `(clock, index)` issues. A processor blocked on a held lock or
/// an unposted event is ineligible until the holder releases or the post
/// lands, and resumes no earlier than that instant. Lock and post/wait
/// traffic lands on the issuing processor's shard, so per-class sums
/// match the one-engine run.
fn replay_scan(
    trace: &Trace,
    e: usize,
    t0: Cycle,
    plan: &Plan,
    sched: &mut Sched,
    shards: &mut [&mut ShardState],
    coord: &mut Coord,
) {
    let epoch = &trace.epochs[e];
    let procs = epoch.per_proc.len();
    sched.epoch_stamp += 1;
    let stamp = sched.epoch_stamp;
    coord.clocks.fill(t0);
    sched.idx.fill(0);
    sched.blocked_on.fill(None);
    sched.lock_holder.fill(None);
    sched.active.clear();
    sched
        .active
        .extend((0..procs).filter(|&p| !epoch.per_proc[p].is_empty()));
    loop {
        let mut next: Option<usize> = None;
        for &p in &sched.active {
            let eligible = match sched.blocked_on[p] {
                Some(Block::Lock(l)) => sched.lock_holder[l as usize].is_none(),
                Some(Block::Event(id)) => sched.posted_stamp[id] == stamp,
                None => true,
            };
            if eligible && next.is_none_or(|q: usize| (coord.clocks[p], p) < (coord.clocks[q], q)) {
                next = Some(p);
            }
        }
        let Some(p) = next else {
            assert!(
                sched.active.is_empty(),
                "lock deadlock: events remain but every processor is blocked"
            );
            break;
        };
        let st = &mut *shards[plan.owner[p]];
        let ev = &epoch.per_proc[p][sched.idx[p]];
        let now = coord.clocks[p];
        let spent = match ev {
            Event::AcquireLock(l) => {
                if sched.lock_holder[*l as usize].is_some() {
                    // Stay blocked; retry once the holder releases.
                    sched.blocked_on[p] = Some(Block::Lock(*l));
                    continue;
                }
                sched.blocked_on[p] = None;
                sched.lock_holder[*l as usize] = Some(p);
                coord.lock_acquires += 1;
                // The acquire itself is an atomic read-modify-write at
                // the lock's home memory module.
                st.engine.network_mut().record(TrafficClass::Coherence, 1);
                st.engine.network().word_fetch()
            }
            Event::ReleaseLock(l) => {
                let holder = sched.lock_holder[*l as usize].take();
                debug_assert_eq!(holder, Some(p), "release by non-holder");
                for q in 0..procs {
                    if sched.blocked_on[q] == Some(Block::Lock(*l)) && coord.clocks[q] < now {
                        coord.lock_wait_cycles += now - coord.clocks[q];
                        coord.clocks[q] = now;
                    }
                }
                st.engine.network_mut().record(TrafficClass::Coherence, 1);
                1
            }
            Event::PostEvent { event, index } => {
                // The post is a release fence + a flag write at the
                // event's home node.
                let id = plan.sync_id(*event, *index);
                sched.posted_at[id] = now;
                sched.posted_stamp[id] = stamp;
                for q in 0..procs {
                    if sched.blocked_on[q] == Some(Block::Event(id)) && coord.clocks[q] < now {
                        coord.lock_wait_cycles += now - coord.clocks[q];
                        coord.clocks[q] = now;
                    }
                }
                st.engine.network_mut().record(TrafficClass::Coherence, 1);
                1
            }
            Event::WaitEvent { event, index } => {
                let id = plan.sync_id(*event, *index);
                if sched.posted_stamp[id] != stamp {
                    sched.blocked_on[p] = Some(Block::Event(id));
                    continue;
                }
                let t = sched.posted_at[id];
                sched.blocked_on[p] = None;
                // Poll of the flag at the event's home node.
                st.engine.network_mut().record(TrafficClass::Coherence, 0);
                let stall = now.max(t).saturating_sub(now) + 1;
                coord.lock_wait_cycles += stall - 1;
                stall
            }
            _ => st.access(trace, plan, p, ev, now),
        };
        sched.idx[p] += 1;
        coord.clocks[p] += spent;
        st.events += 1;
        if sched.idx[p] == epoch.per_proc[p].len() {
            sched.active.retain(|&q| q != p);
        }
    }
}

/// P2: run the boundary on shard `me` with the merged clock vector, then
/// snapshot what the coordinator needs (traffic words, version updates,
/// owned-processor miss delta).
fn boundary_phase(plan: &Plan, me: usize, clocks: &[Cycle], st: &mut ShardState) {
    let start = Instant::now();
    st.stalls = st.engine.epoch_boundary(clocks);
    st.updates = st.engine.drain_version_updates();
    st.words = st.engine.network().epoch_words();
    let cur = st.owned_read_misses(plan, me);
    st.miss_delta = cur - st.miss_prev;
    st.miss_prev = cur;
    st.boundary_nanos = st.boundary_nanos.saturating_add(elapsed_nanos_since(start));
}

/// C2: fold the shards' boundary outputs into the epoch's global
/// accounting: the epoch ends when the slowest processor clears the
/// barrier, plus the loop setup charge.
fn coordinate_epoch(
    trace: &Trace,
    e: usize,
    t0: Cycle,
    opts: &SimOptions,
    plan: &Plan,
    states: &[&mut ShardState],
    coord: &mut Coord,
) {
    let t_end = coord
        .clocks
        .iter()
        .enumerate()
        .map(|(p, &c)| c + states[plan.owner[p]].stalls[p])
        .max()
        .unwrap_or(t0)
        + opts.epoch_setup_cycles;
    coord.elapsed = t_end - t0;
    for (p, &c) in coord.clocks.iter().enumerate() {
        coord.busy[p] += c - t0;
    }
    coord.total_words = states.iter().map(|st| st.words).sum();
    coord.updates.clear();
    for st in states {
        coord.updates.extend_from_slice(&st.updates);
    }
    coord.profile.push(EpochProfile {
        epoch: trace.epochs[e].epoch.0,
        cycles: coord.elapsed,
        misses: states.iter().map(|st| st.miss_delta).sum(),
    });
    coord.global = t_end;
}

/// P3: bring shard `me` up to date with the merged boundary — apply every
/// shard's version commits (max-merge; reapplying its own is a no-op) and
/// refresh the network load factor from the *total* traffic, so all
/// replicas compute the identical `rho` one engine would.
fn finish_phase(st: &mut ShardState, updates: &[(u64, u64)], total_words: u64, elapsed: Cycle) {
    st.engine.apply_version_updates(updates);
    st.engine.network_mut().end_epoch_as(total_words, elapsed);
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Sequential driver: one thread walks every phase of every shard. It is
/// the only driver of one-shard runs, and shares all phase code with the
/// threaded driver.
fn run_inline(
    trace: &Trace,
    opts: &SimOptions,
    plan: &Plan,
    states: &mut [ShardState],
    coord: &mut Coord,
) {
    let mut sched = Sched::new(plan, trace.num_procs as usize);
    let mut shards: Vec<&mut ShardState> = states.iter_mut().collect();
    for e in 0..trace.epochs.len() {
        let t0 = coord.global;
        if plan.replay[e] == Replay::Flat {
            for (me, st) in shards.iter_mut().enumerate() {
                replay_flat(trace, e, t0, plan, me, st);
            }
        }
        replay_ordered(trace, e, t0, plan, &mut sched, &mut shards, coord);
        for (me, st) in shards.iter_mut().enumerate() {
            boundary_phase(plan, me, &coord.clocks, st);
        }
        coordinate_epoch(trace, e, t0, opts, plan, &shards, coord);
        for st in &mut shards {
            finish_phase(st, &coord.updates, coord.total_words, coord.elapsed);
        }
    }
}

/// Threaded driver: one OS thread per shard, phases separated by
/// barriers. Thread 0 doubles as the coordinator (and replays ordered
/// epochs), locking every shard's state while the other threads park at
/// the next barrier.
fn run_threaded(
    trace: &Trace,
    opts: &SimOptions,
    plan: &Plan,
    states: &mut [ShardState],
    coord: &mut Coord,
) {
    let s = plan.shards;
    let procs = trace.num_procs as usize;
    let shared: Vec<Mutex<&mut ShardState>> = states.iter_mut().map(Mutex::new).collect();
    let coord_cell = Mutex::new(coord);
    let barrier = Barrier::new(s);
    std::thread::scope(|scope| {
        for t in 0..s {
            let shared = &shared;
            let coord_cell = &coord_cell;
            let barrier = &barrier;
            scope.spawn(move || {
                // Ordered-replay tables live on (and are only touched by)
                // thread 0.
                let mut sched = (t == 0).then(|| Sched::new(plan, procs));
                for e in 0..trace.epochs.len() {
                    // P1: flat replay of owned processors.
                    if plan.replay[e] == Replay::Flat {
                        let t0 = coord_cell.lock().unwrap().global;
                        let mut st = shared[t].lock().unwrap();
                        replay_flat(trace, e, t0, plan, t, &mut st);
                    }
                    barrier.wait();
                    // C1 (+ ordered P1): thread 0 takes every shard.
                    if let Some(sched) = sched.as_mut() {
                        let mut coord = coord_cell.lock().unwrap();
                        let mut guards: Vec<_> = shared.iter().map(|m| m.lock().unwrap()).collect();
                        let mut refs: Vec<&mut ShardState> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        let t0 = coord.global;
                        replay_ordered(trace, e, t0, plan, sched, &mut refs, &mut coord);
                    }
                    barrier.wait();
                    // P2: every shard runs its boundary with the merged
                    // clocks.
                    {
                        let clocks = coord_cell.lock().unwrap().clocks.clone();
                        let mut st = shared[t].lock().unwrap();
                        boundary_phase(plan, t, &clocks, &mut st);
                    }
                    barrier.wait();
                    // C2: thread 0 folds the boundary outputs.
                    if t == 0 {
                        let mut coord = coord_cell.lock().unwrap();
                        let mut guards: Vec<_> = shared.iter().map(|m| m.lock().unwrap()).collect();
                        let refs: Vec<&mut ShardState> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        // `global` is not bumped to t_end until
                        // coordinate_epoch runs, so it still reads t0 here.
                        let t0 = coord.global;
                        coordinate_epoch(trace, e, t0, opts, plan, &refs, &mut coord);
                    }
                    barrier.wait();
                    // P3: every shard applies the merged boundary.
                    {
                        let (updates, words, elapsed) = {
                            let coord = coord_cell.lock().unwrap();
                            (coord.updates.clone(), coord.total_words, coord.elapsed)
                        };
                        let mut st = shared[t].lock().unwrap();
                        finish_phase(&mut st, &updates, words, elapsed);
                    }
                    barrier.wait();
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

/// Folds the shards into one [`SimResult`]: per-processor counters by
/// owner-select, commutative accumulators by summation, global timing
/// from the coordinator.
fn merge_result(trace: &Trace, plan: &Plan, states: &[ShardState], coord: Coord) -> SimResult {
    let procs = trace.num_procs as usize;
    let per_proc: Vec<tpi_proto::ProcStats> = (0..procs)
        .map(|p| states[plan.owner[p]].engine.stats().per_proc()[p])
        .collect();
    let mut agg = tpi_proto::ProcStats::default();
    for s in &per_proc {
        agg.merge(s);
    }
    let mut traffic = tpi_net::TrafficStats::default();
    for st in states {
        traffic.merge(st.engine.network().stats());
    }
    let wbuffer = states
        .iter()
        .map(|st| st.engine.write_buffer_stats())
        .try_fold(None::<tpi_cache::WriteBufferStats>, |acc, w| {
            let w = w?; // None for non-write-through schemes: propagate
            Some(Some(match acc {
                None => w,
                Some(mut a) => {
                    a.enqueued += w.enqueued;
                    a.sent += w.sent;
                    a.coalesced += w.coalesced;
                    a
                }
            }))
        })
        .flatten();
    let mut array_misses = vec![0u64; trace.layout.decls().len()];
    for st in states {
        for (dst, src) in array_misses.iter_mut().zip(&st.array_misses) {
            *dst += src;
        }
    }
    let mut ops = states[0].engine.op_counts();
    for st in &states[1..] {
        for (dst, src) in ops.iter_mut().zip(st.engine.op_counts()) {
            debug_assert_eq!(dst.0, src.0, "op counter order differs across replicas");
            dst.1 += src.1;
        }
    }
    SimResult {
        scheme: states[0].engine.name().to_owned(),
        total_cycles: coord.global,
        busy_cycles: coord.busy,
        agg,
        per_proc,
        traffic,
        wbuffer,
        epochs: trace.epochs.len() as u64,
        lock_acquires: coord.lock_acquires,
        lock_wait_cycles: coord.lock_wait_cycles,
        profile: coord.profile,
        miss_by_array: miss_by_array_table(&trace.layout, &array_misses),
        host: SimHostProfile {
            replay_nanos: states.iter().map(|st| st.replay_nanos).sum(),
            boundary_nanos: states.iter().map(|st| st.boundary_nanos).sum(),
            events: states.iter().map(|st| st.events).sum(),
            switches: states.iter().map(|st| st.switches).sum(),
            run_ahead: states.iter().map(|st| st.run_ahead).sum(),
            ops,
        },
    }
}
