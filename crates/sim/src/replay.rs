//! The replay core: one engine replays a trace epoch by epoch, each epoch
//! in the min-clock order, closed by the barrier every processor meets.
//!
//! # Two exact replay strategies
//!
//! The reference order within an epoch is the min-clock order: the
//! processor with the smallest `(clock, index)` issues the next event. Each
//! epoch reproduces it with one of two strategies, chosen before the run by
//! whether the epoch holds lock or post/wait events:
//!
//! * **Heap** — a sync-free epoch keeps a binary min-heap of
//!   `(clock, processor)`. The popped processor keeps issuing while it
//!   stays below the heap's top, and past the top while its next event
//!   *commutes* with the rest of the epoch (below); then it trades places
//!   with the top, at `O(log P)` per processor switch instead of `O(P)` per
//!   event. On an [`CoherenceEngine::order_insensitive`] engine every
//!   access commutes, so no processor ever yields: the heap replays each
//!   stream straight through, in processor order.
//! * **Scan** — a sync-ful epoch scans every active processor's clock per
//!   event, skipping processors blocked on a held lock or an unposted
//!   event. [`crate::run_trace_reference`] replays every epoch this way.
//!
//! At the barrier the engine adds its boundary costs
//! ([`CoherenceEngine::epoch_boundary`]), the epoch ends when the slowest
//! processor clears it plus the loop setup charge, and the network's load
//! estimate is refreshed from the epoch's traffic.
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
//! every [`SimResult`] is byte-identical.
//!
//! An order-insensitive engine (BASE, SC, TPI, IDEAL) is the case in which
//! every access commutes, and it needs no table: its only cross-processor
//! state is the memory version table, which commits at epoch boundaries
//! (matching the write-buffer drain), so each outcome depends only on the
//! processor's own state, on global state committed at the last boundary,
//! and on commutative accumulators.
//!
//! The reference pins in `crates/sim/tests/reference.rs`, the `replay`
//! class of `tpi-fuzz` (with its `hw-commutes-always` and
//! `hw-claims-order-insensitive` sabotages) and `tpi-model`'s commutation
//! check hold every rule and every order-insensitive claim to this.
//!
//! # Inert shims
//!
//! [`run_trace_sharded`], [`ShardOptions`] and [`ShardExec`] remain only
//! because the repository benchmark package imports them; they replay
//! serially and go when the benchmark drops its `sim.sharded.*` metrics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use tpi_mem::{Cycle, ProcId};
use tpi_net::TrafficClass;
use tpi_proto::{build_engine, CoherenceEngine, EngineConfig, EpochRefs, ProcStats, SchemeId};
use tpi_trace::{Event, Trace};

use crate::run::{elapsed_nanos_since, miss_by_array_table, EpochProfile};
use crate::{run_trace, SimHostProfile, SimOptions, SimResult};

/// Inert shim (see the module docs): names the executors of a replay
/// mode that no longer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardExec {
    /// Ignored.
    Inline,
    /// Ignored.
    Threads,
}

/// Inert shim (see the module docs): [`run_trace_sharded`] ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Ignored.
    pub shards: usize,
    /// Ignored.
    pub exec: ShardExec,
}

/// Inert shim (see the module docs): [`run_trace`] on a fresh engine for
/// `scheme` built from `cfg`; `_shards` is ignored.
///
/// # Panics
///
/// As [`run_trace`].
#[must_use]
pub fn run_trace_sharded(
    trace: &Trace,
    scheme: SchemeId,
    cfg: &EngineConfig,
    opts: &SimOptions,
    _shards: &ShardOptions,
) -> SimResult {
    run_trace(trace, build_engine(scheme, cfg.clone()).as_mut(), opts)
}

/// Replays `trace` through `engine`; with `reference` set, every epoch
/// takes the scan.
pub(crate) fn replay(
    trace: &Trace,
    engine: &mut dyn CoherenceEngine,
    opts: &SimOptions,
    reference: bool,
) -> SimResult {
    let procs = trace.num_procs as usize;
    assert_eq!(
        procs,
        engine.stats().per_proc().len(),
        "trace and engine disagree on processor count"
    );
    let plan = Plan::build(trace, engine.order_insensitive(), reference);
    let mut sched = Sched::new(&plan, procs);
    let mut st = State::new(engine, trace);
    let mut global: Cycle = 0;
    let mut busy = vec![0; procs];
    let mut profile = Vec::with_capacity(trace.epochs.len());
    let mut misses_before = 0;
    let (mut replay_nanos, mut boundary_nanos) = (0u64, 0u64);
    for (e, epoch) in trace.epochs.iter().enumerate() {
        let t0 = global;
        let start = Instant::now();
        match plan.replay[e] {
            Replay::Heap => replay_heap(trace, e, t0, &plan, &mut sched, &mut st),
            Replay::Scan => replay_scan(trace, e, t0, &plan, &mut sched, &mut st),
        }
        replay_nanos = replay_nanos.saturating_add(elapsed_nanos_since(start));
        let start = Instant::now();
        let stalls = st.engine.epoch_boundary(&st.clocks);
        let misses: u64 = st
            .engine
            .stats()
            .per_proc()
            .iter()
            .map(ProcStats::read_misses)
            .sum();
        boundary_nanos = boundary_nanos.saturating_add(elapsed_nanos_since(start));
        // The epoch ends when the slowest processor clears the barrier,
        // plus the loop setup charge.
        let t_end = st
            .clocks
            .iter()
            .enumerate()
            .map(|(p, &c)| c + stalls[p])
            .max()
            .unwrap_or(t0)
            + opts.epoch_setup_cycles;
        for (b, &c) in busy.iter_mut().zip(&st.clocks) {
            *b += c - t0;
        }
        profile.push(EpochProfile {
            epoch: epoch.epoch.0,
            cycles: t_end - t0,
            misses: misses - misses_before,
        });
        misses_before = misses;
        st.engine.network_mut().end_epoch(t_end - t0);
        global = t_end;
    }
    let engine = st.engine;
    SimResult {
        scheme: engine.name().to_owned(),
        total_cycles: global,
        busy_cycles: busy,
        agg: engine.stats().aggregate(),
        per_proc: engine.stats().per_proc().to_vec(),
        traffic: *engine.network().stats(),
        wbuffer: engine.write_buffer_stats(),
        epochs: trace.epochs.len() as u64,
        lock_acquires: st.lock_acquires,
        lock_wait_cycles: st.lock_wait_cycles,
        profile,
        miss_by_array: miss_by_array_table(&trace.layout, &st.array_misses),
        host: SimHostProfile {
            replay_nanos,
            boundary_nanos,
            events: st.events,
            switches: st.switches,
            run_ahead: st.run_ahead,
            ops: engine.op_counts(),
        },
    }
}

// ---------------------------------------------------------------------------
// Precomputed replay plan
// ---------------------------------------------------------------------------

/// How one epoch replays (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Replay {
    Heap,
    Scan,
}

/// Everything derivable from the trace and the engine's order
/// insensitivity, computed once.
struct Plan {
    /// Strategy per epoch.
    replay: Vec<Replay>,
    /// Whether every access commutes, so the heap never switches.
    order_insensitive: bool,
    /// Highest lock id in the trace (locks never span epochs).
    max_lock: Option<u32>,
    /// Dense ids for every distinct post/wait `(event, index)` pair.
    sync_pairs: Vec<(u32, i64)>,
    /// Private replicas live at `base + k * span`; a miss folds back to
    /// its declared array by `addr % span`.
    span: u64,
}

impl Plan {
    fn build(trace: &Trace, order_insensitive: bool, reference: bool) -> Plan {
        let mut replay = Vec::with_capacity(trace.epochs.len());
        let mut max_lock: Option<u32> = None;
        let mut sync_pairs: Vec<(u32, i64)> = Vec::new();
        for epoch in &trace.epochs {
            let mut free = !reference;
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
            replay.push(if free { Replay::Heap } else { Replay::Scan });
        }
        sync_pairs.sort_unstable();
        sync_pairs.dedup();
        Plan {
            replay,
            order_insensitive,
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
// Replay state
// ---------------------------------------------------------------------------

/// The engine plus the run-long accumulators the epochs' replays feed.
struct State<'e> {
    engine: &'e mut dyn CoherenceEngine,
    /// Each processor's clock in the current epoch.
    clocks: Vec<Cycle>,
    /// Trace events issued.
    events: u64,
    /// Heap replays' processor switches: times the running processor
    /// yielded to the heap's top before its stream ended.
    switches: u64,
    /// Events the heap replay issued ahead of a processor with a smaller
    /// clock because they commute with the rest of the epoch.
    run_ahead: u64,
    /// Per-array read-miss tally, dense by `ArrayId`.
    array_misses: Vec<u64>,
    lock_acquires: u64,
    lock_wait_cycles: Cycle,
}

impl<'e> State<'e> {
    fn new(engine: &'e mut dyn CoherenceEngine, trace: &Trace) -> Self {
        State {
            engine,
            clocks: vec![0; trace.num_procs as usize],
            events: 0,
            switches: 0,
            run_ahead: 0,
            array_misses: vec![0; trace.layout.decls().len()],
            lock_acquires: 0,
            lock_wait_cycles: 0,
        }
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

/// The strategies' tables, allocated once per run and reset per epoch
/// (stamping replaces per-epoch clears of the post tables).
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
// Strategies
// ---------------------------------------------------------------------------

/// Heap strategy for a sync-free epoch: the running processor keeps
/// issuing while its `(clock, index)` stays below the heap's top, and past
/// it while its next event commutes with the rest of the epoch (see the
/// module docs); otherwise it swaps in for the top. Zero-cycle events and
/// clock ties resolve exactly as under the scan, because the key order is
/// the scan's order.
fn replay_heap(trace: &Trace, e: usize, t0: Cycle, plan: &Plan, sched: &mut Sched, st: &mut State) {
    let epoch = &trace.epochs[e];
    st.clocks.fill(t0);
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
        if plan.order_insensitive {
            // Every access commutes: the stream runs to its end.
            for ev in &stream[i..] {
                now += st.access(trace, plan, p, ev, now);
            }
            st.events += (stream.len() - i) as u64;
            st.clocks[p] = now;
            running = heap.pop();
            continue;
        }
        running = loop {
            now += st.access(trace, plan, p, &stream[i], now);
            i += 1;
            st.events += 1;
            if i == stream.len() {
                st.clocks[p] = now;
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
/// lands, and resumes no earlier than that instant.
fn replay_scan(trace: &Trace, e: usize, t0: Cycle, plan: &Plan, sched: &mut Sched, st: &mut State) {
    let epoch = &trace.epochs[e];
    let procs = epoch.per_proc.len();
    sched.epoch_stamp += 1;
    let stamp = sched.epoch_stamp;
    st.clocks.fill(t0);
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
            if eligible && next.is_none_or(|q: usize| (st.clocks[p], p) < (st.clocks[q], q)) {
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
        let ev = &epoch.per_proc[p][sched.idx[p]];
        let now = st.clocks[p];
        let spent = match ev {
            Event::AcquireLock(l) => {
                if sched.lock_holder[*l as usize].is_some() {
                    // Stay blocked; retry once the holder releases.
                    sched.blocked_on[p] = Some(Block::Lock(*l));
                    continue;
                }
                sched.blocked_on[p] = None;
                sched.lock_holder[*l as usize] = Some(p);
                st.lock_acquires += 1;
                // The acquire itself is an atomic read-modify-write at
                // the lock's home memory module.
                st.engine.network_mut().record(TrafficClass::Coherence, 1);
                st.engine.network().word_fetch()
            }
            Event::ReleaseLock(l) => {
                let holder = sched.lock_holder[*l as usize].take();
                debug_assert_eq!(holder, Some(p), "release by non-holder");
                for q in 0..procs {
                    if sched.blocked_on[q] == Some(Block::Lock(*l)) && st.clocks[q] < now {
                        st.lock_wait_cycles += now - st.clocks[q];
                        st.clocks[q] = now;
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
                    if sched.blocked_on[q] == Some(Block::Event(id)) && st.clocks[q] < now {
                        st.lock_wait_cycles += now - st.clocks[q];
                        st.clocks[q] = now;
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
                st.lock_wait_cycles += stall - 1;
                stall
            }
            _ => st.access(trace, plan, p, ev, now),
        };
        sched.idx[p] += 1;
        st.clocks[p] += spent;
        st.events += 1;
        if sched.idx[p] == epoch.per_proc[p].len() {
            sched.active.retain(|&q| q != p);
        }
    }
}
