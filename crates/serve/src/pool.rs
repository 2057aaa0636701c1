//! The execution side of the service: a single-flight cell store (result
//! cache + in-flight deduplication) and a bounded, supervised worker
//! pool.
//!
//! Identity is a [`CellKey`]. The first request to need a cell becomes
//! its *leader* and enqueues one job; every concurrent request for the
//! same cell *joins* the leader's flight slot and is woken when the one
//! computation finishes; later requests hit the completed-result cache.
//! The queue between requests and workers is bounded — when a request's
//! jobs don't fit, the whole request is refused (backpressure, a 503 at
//! the HTTP layer) rather than queued without limit.
//!
//! Failure isolation, in layers:
//!
//! 1. every cell computation runs under [`tpi::catch_cell_panic`], so a
//!    panicking cell resolves its own flight slot with a structured
//!    [`CellError::Panicked`] — waiters get a 500, nothing is cached,
//!    and the next identical request recomputes;
//! 2. a drop guard re-arms that promise for the *unguarded* remainder of
//!    the job (publishing, metrics): if the worker dies anywhere between
//!    claiming a job and finishing it, the guard resolves the slot
//!    during unwind so no waiter can wedge;
//! 3. worker threads are supervised — a worker that dies for any reason
//!    respawns itself (counted in `tpi_worker_restarts_total`) unless
//!    the pool is stopping;
//! 4. shutdown terminally answers whatever is left: after the workers
//!    drain and exit, any job still queued is failed with
//!    [`CellError::ShuttingDown`] so its waiters resolve before the
//!    final stats line.

use crate::disk::DiskCache;
use crate::fault::{FaultPlan, FaultSite, INJECTED_PANIC_PREFIX};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::wire::{render_cell, CellKey};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use tpi::{catch_cell_panic, lock_unpoisoned, Runner};

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The service refused the work (queue full at submission time).
    /// Waiters that joined the flight report 503, same as the leader.
    Overloaded,
    /// The experiment itself failed (e.g. the program races under its
    /// schedule) — a legitimate per-cell result, not a server fault.
    Failed(String),
    /// The cell's computation panicked. Contained per cell: only this
    /// cell's waiters see it (a 500 at the HTTP layer), the outcome is
    /// never cached, and the next identical request recomputes.
    Panicked(String),
    /// The pool shut down before the cell could run (a 503
    /// `shutting_down` at the HTTP layer). Never cached.
    ShuttingDown,
}

/// A successful cell value: either computed in this process, or
/// recovered verbatim from the disk cache. Both render to the same
/// response bytes — [`CellValue::rendered`] is the byte-identity
/// contract the chaos harness and the persistence tests check.
#[derive(Debug)]
pub enum CellValue {
    /// Computed by a worker in this process (boxed: an
    /// [`ExperimentResult`] dwarfs the recovered variant).
    Computed(Box<ExperimentResult>),
    /// Recovered from a verified disk-cache record: the parsed form of
    /// the exact JSON this cell was served as before the restart.
    Recovered(Json),
}

impl CellValue {
    /// The cell's response JSON node.
    #[must_use]
    pub fn to_json(&self, key: &CellKey) -> Json {
        match self {
            CellValue::Computed(result) => render_cell(key, result),
            CellValue::Recovered(json) => json.clone(),
        }
    }

    /// The cell's response bytes. Rendering is deterministic, so a
    /// recovered cell reproduces its pre-restart bytes exactly.
    #[must_use]
    pub fn rendered(&self, key: &CellKey) -> String {
        self.to_json(key).render()
    }
}

/// What one cell computation produced.
pub type CellOutcome = Result<CellValue, CellError>;

use tpi::ExperimentResult;

/// A slot that one leader fills and any number of waiters block on:
/// the value type of both single-flight tables, the replica's
/// [`CellStore`] (`V` = [`CellOutcome`]) and the router's.
#[derive(Debug)]
pub struct FlightSlot<V> {
    state: Mutex<Option<Arc<V>>>,
    cond: Condvar,
}

impl<V> FlightSlot<V> {
    pub(crate) fn new() -> Arc<FlightSlot<V>> {
        Arc::new(FlightSlot {
            state: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Option<Arc<V>>> {
        lock_unpoisoned(&self.state)
    }

    pub(crate) fn complete(&self, value: Arc<V>) {
        *self.lock() = Some(value);
        self.cond.notify_all();
    }

    /// Blocks until the slot is filled or `deadline` passes.
    #[must_use]
    pub fn wait_until(&self, deadline: Instant) -> Option<Arc<V>> {
        let mut state = self.lock();
        loop {
            if let Some(value) = state.as_ref() {
                return Some(Arc::clone(value));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) = tpi::wait_timeout_unpoisoned(&self.cond, state, deadline - now);
            state = next;
            if timeout.timed_out() && state.is_none() {
                return None;
            }
        }
    }
}

/// How a request obtains one cell.
pub enum CellPlan {
    /// Already computed: the outcome is immediately available.
    Cached(Arc<CellOutcome>),
    /// An identical cell is in flight: wait on its slot.
    Joined(Arc<FlightSlot<CellOutcome>>),
    /// This request leads the cell: it must enqueue the returned job.
    Lead(CellJob),
}

/// One unit of pooled work.
#[derive(Debug)]
pub struct CellJob {
    /// The cell to compute.
    pub key: CellKey,
    /// The slot every waiter of this cell blocks on.
    pub slot: Arc<FlightSlot<CellOutcome>>,
}

/// Default bound on the in-memory completed-result LRU.
pub const DEFAULT_MEMORY_CELLS: usize = 1024;

/// The bounded in-memory layer: completed results with last-use ticks.
/// Eviction is an O(n) scan for the least-recent tick — n is the memory
/// bound (a thousand or so), the map is behind a leaf lock, and
/// evictions only happen on inserts past the bound.
struct MemoryLru {
    map: HashMap<CellKey, (Arc<CellOutcome>, u64)>,
    tick: u64,
    cap: usize,
}

impl MemoryLru {
    fn new(cap: usize) -> MemoryLru {
        MemoryLru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    fn get(&mut self, key: &CellKey) -> Option<Arc<CellOutcome>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(outcome, used)| {
            *used = tick;
            Arc::clone(outcome)
        })
    }

    /// Inserts and evicts down to the bound; returns how many entries
    /// were evicted.
    fn insert(&mut self, key: CellKey, outcome: Arc<CellOutcome>) -> u64 {
        self.tick += 1;
        self.map.insert(key, (outcome, self.tick));
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Completed results plus the in-flight table. Lock order is always
/// `inflight` before `done`; both are leaf locks held only for map
/// operations (and, on the miss path, one disk-cache probe).
///
/// With a [`DiskCache`] attached the store is two-level: the `done` map
/// is a bounded LRU (so memory stays flat no matter how many distinct
/// cells the fleet has seen) and every successful computation is also
/// persisted, so a restarted replica answers its old cells from disk —
/// byte-identically — without recomputing.
pub struct CellStore {
    inflight: Mutex<HashMap<CellKey, Arc<FlightSlot<CellOutcome>>>>,
    done: Mutex<MemoryLru>,
    disk: Option<Arc<DiskCache>>,
    metrics: Option<Arc<Metrics>>,
}

impl Default for CellStore {
    fn default() -> CellStore {
        CellStore::new(DEFAULT_MEMORY_CELLS, None, None)
    }
}

impl CellStore {
    /// A store bounded to `memory_cells` completed results in memory,
    /// optionally backed by a persistent `disk` cache.
    #[must_use]
    pub fn new(
        memory_cells: usize,
        disk: Option<Arc<DiskCache>>,
        metrics: Option<Arc<Metrics>>,
    ) -> CellStore {
        CellStore {
            inflight: Mutex::new(HashMap::new()),
            done: Mutex::new(MemoryLru::new(memory_cells)),
            disk,
            metrics,
        }
    }

    /// The attached disk cache, if any.
    #[must_use]
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    fn inflight(&self) -> MutexGuard<'_, HashMap<CellKey, Arc<FlightSlot<CellOutcome>>>> {
        lock_unpoisoned(&self.inflight)
    }

    fn done(&self) -> MutexGuard<'_, MemoryLru> {
        lock_unpoisoned(&self.done)
    }

    fn memory_insert(&self, key: CellKey, outcome: Arc<CellOutcome>) {
        let evicted = self.done().insert(key, outcome);
        if evicted > 0 {
            if let Some(metrics) = &self.metrics {
                metrics
                    .memory_evictions
                    .fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Decides how to obtain `key`: cached (memory or a verified disk
    /// record), joined, or led. Registering the leader is atomic with
    /// the lookups, so two concurrent requests can never both lead the
    /// same cell. A disk hit is promoted into the memory LRU.
    #[must_use]
    pub fn plan(&self, key: CellKey) -> CellPlan {
        let mut inflight = self.inflight();
        if let Some(outcome) = self.done().get(&key) {
            return CellPlan::Cached(outcome);
        }
        if let Some(slot) = inflight.get(&key) {
            return CellPlan::Joined(Arc::clone(slot));
        }
        if let Some(disk) = &self.disk {
            if let Some(json) = disk.get(&key) {
                let outcome = Arc::new(Ok(CellValue::Recovered(json)));
                self.memory_insert(key, Arc::clone(&outcome));
                return CellPlan::Cached(outcome);
            }
        }
        let slot = FlightSlot::new();
        inflight.insert(key, Arc::clone(&slot));
        CellPlan::Lead(CellJob { key, slot })
    }

    /// Publishes a finished cell: future requests hit the result cache,
    /// current waiters are woken. Experiment failures are cached too —
    /// they are deterministic results of the cell's inputs. Transient
    /// server states — `Overloaded`, `Panicked`, `ShuttingDown` — are
    /// *not* cached, so the next request retries the cell.
    ///
    /// Computed successes are also persisted to the disk cache (before
    /// the in-memory publish, so a crash after the waiters observe the
    /// result cannot lose it).
    pub fn finish(&self, job: &CellJob, outcome: CellOutcome) {
        let outcome = Arc::new(outcome);
        if let (Some(disk), Ok(value)) = (&self.disk, outcome.as_ref()) {
            disk.put(&job.key, &value.rendered(&job.key));
        }
        {
            let mut inflight = self.inflight();
            if matches!(outcome.as_ref(), Ok(_) | Err(CellError::Failed(_))) {
                self.memory_insert(job.key, Arc::clone(&outcome));
            }
            inflight.remove(&job.key);
        }
        job.slot.complete(outcome);
    }

    /// Number of completed cells held by the in-memory result cache.
    #[must_use]
    pub fn results_cached(&self) -> usize {
        self.done().map.len()
    }

    /// Number of cells currently in flight. Zero once every request has
    /// been terminally answered — `tpi-chaos` asserts exactly that at
    /// drain.
    #[must_use]
    pub fn inflight_cells(&self) -> usize {
        self.inflight().len()
    }

    /// A snapshot of the completed-result cache, in unspecified order.
    /// Verification layers (`tpi-chaos`) replay these against a fresh
    /// serial [`Runner`] to prove the cache was never silently corrupted.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(CellKey, Arc<CellOutcome>)> {
        self.done()
            .map
            .iter()
            .map(|(k, (v, _))| (*k, Arc::clone(v)))
            .collect()
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<CellJob>>,
    cond: Condvar,
    cap: usize,
    busy: AtomicUsize,
    stop: AtomicBool,
    runner: Arc<Runner>,
    store: Arc<CellStore>,
    metrics: Arc<Metrics>,
    fault: Option<Arc<FaultPlan>>,
    /// Worker join handles, including respawns (see [`spawn_worker`]).
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A fixed-size set of supervised worker threads fed by one bounded
/// queue. "Fixed-size" survives faults: a worker that dies respawns
/// itself unless the pool is stopping.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads over a queue of capacity `queue_cap`.
    #[must_use]
    pub fn start(
        workers: usize,
        queue_cap: usize,
        runner: Arc<Runner>,
        store: Arc<CellStore>,
        metrics: Arc<Metrics>,
        fault: Option<Arc<FaultPlan>>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            cap: queue_cap.max(1),
            busy: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            runner,
            store,
            metrics,
            fault,
            handles: Mutex::new(Vec::new()),
        });
        for i in 0..workers {
            spawn_worker(&shared, i);
        }
        WorkerPool { shared, workers }
    }

    /// Enqueues a request's jobs, all or nothing. If the queue cannot
    /// take every job, nothing is enqueued and the jobs come back in
    /// `Err` — the caller must fail them (see [`CellStore::finish`] with
    /// [`CellError::Overloaded`] or [`CellError::ShuttingDown`]) so
    /// joined waiters are released too.
    ///
    /// # Errors
    ///
    /// Returns the jobs unchanged when the queue lacks room or the pool
    /// is shutting down.
    pub fn submit_batch(&self, jobs: Vec<CellJob>) -> Result<(), Vec<CellJob>> {
        if jobs.is_empty() {
            return Ok(());
        }
        let mut queue = lock_unpoisoned(&self.shared.queue);
        if self.shared.stop.load(Ordering::Acquire) || queue.len() + jobs.len() > self.shared.cap {
            return Err(jobs);
        }
        queue.extend(jobs);
        drop(queue);
        self.shared.cond.notify_all();
        Ok(())
    }

    /// Cells waiting in the queue right now.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).len()
    }

    /// Workers currently computing a cell.
    #[must_use]
    pub fn busy(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Size of the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queue capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.cap
    }

    /// Stops the pool: no new submissions are accepted, already-queued
    /// jobs are drained by the surviving workers (their waiters still
    /// get results), the workers exit and are joined — and if faults
    /// left the pool with no worker to drain the queue, whatever is
    /// still queued is terminally failed with
    /// [`CellError::ShuttingDown`], so every waiter resolves before
    /// shutdown returns.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.cond.notify_all();
        // Respawning workers may add handles while we join: loop until
        // the registry is empty.
        loop {
            let batch: Vec<_> = lock_unpoisoned(&self.shared.handles).drain(..).collect();
            if batch.is_empty() {
                break;
            }
            for h in batch {
                let _ = h.join();
            }
        }
        let leftovers: Vec<CellJob> = lock_unpoisoned(&self.shared.queue).drain(..).collect();
        for job in &leftovers {
            self.shared.store.finish(job, Err(CellError::ShuttingDown));
        }
    }
}

/// Spawns worker `index` and registers its handle. The thread supervises
/// itself: if `worker_loop` unwinds (an injected `worker_exit` fault or
/// a real bug outside the per-cell guard), the dying thread counts the
/// restart and spawns its replacement — unless the pool is stopping.
fn spawn_worker(shared: &Arc<PoolShared>, index: usize) {
    let thread_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("tpi-serve-worker-{index}"))
        .spawn(move || {
            let died = catch_cell_panic(|| worker_loop(&thread_shared)).is_err();
            if died && !thread_shared.stop.load(Ordering::Acquire) {
                thread_shared
                    .metrics
                    .worker_restarts
                    .fetch_add(1, Ordering::Relaxed);
                spawn_worker(&thread_shared, index);
            }
        })
        .expect("spawn worker");
    lock_unpoisoned(&shared.handles).push(handle);
}

/// Releases a claimed job's waiters if the worker unwinds anywhere
/// between claiming the job and publishing its outcome. Layer 2 of the
/// isolation story (see the [module docs](self)): the per-cell
/// `catch_cell_panic` handles panics *inside* the computation; this
/// guard covers the rest of the job's lifetime.
struct JobGuard<'a> {
    shared: &'a PoolShared,
    job: &'a CellJob,
    armed: bool,
}

impl Drop for JobGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared
                .metrics
                .cell_panics
                .fetch_add(1, Ordering::Relaxed);
            self.shared.store.finish(
                self.job,
                Err(CellError::Panicked("worker died mid-cell".to_owned())),
            );
            self.shared.busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                queue = tpi::wait_unpoisoned(&shared.cond, queue);
            }
        };
        shared.busy.fetch_add(1, Ordering::Relaxed);
        let mut guard = JobGuard {
            shared,
            job: &job,
            armed: true,
        };
        if let Some(delay) = shared.fault.as_ref().and_then(|p| p.cell_latency()) {
            shared.metrics.fault(FaultSite::CellLatency);
            std::thread::sleep(delay);
        }
        let mut outcome = catch_cell_panic(|| {
            if let Some(plan) = &shared.fault {
                if plan.fires(FaultSite::WorkerPanic) {
                    shared.metrics.fault(FaultSite::WorkerPanic);
                    panic!(
                        "{INJECTED_PANIC_PREFIX} worker_panic in {:?}",
                        job.key.kernel
                    );
                }
            }
            compute(&shared.runner, &job.key)
        })
        .unwrap_or_else(|message| {
            shared.metrics.cell_panics.fetch_add(1, Ordering::Relaxed);
            Err(CellError::Panicked(message))
        });
        if let (Some(plan), Ok(CellValue::Computed(result))) = (&shared.fault, &mut outcome) {
            if plan.corrupts(&job.key) {
                shared.metrics.fault(FaultSite::CacheCorrupt);
                // A detectable lie: flip the headline counter the
                // byte-identity check renders first.
                result.sim.total_cycles ^= 0x00C0_FFEE;
            }
        }
        shared
            .metrics
            .cells_computed
            .fetch_add(1, Ordering::Relaxed);
        shared.store.finish(&job, outcome);
        guard.armed = false;
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        if let Some(plan) = &shared.fault {
            if plan.fires(FaultSite::WorkerExit) {
                shared.metrics.fault(FaultSite::WorkerExit);
                // The job is already published: this kills only the
                // thread, and supervision respawns it.
                panic!("{INJECTED_PANIC_PREFIX} worker_exit");
            }
        }
    }
}

/// The panic-contained cell computation: panics inside the engine are
/// already fenced by [`Runner::run_kernel_safe`]; the worker adds its
/// own fence around the fault hooks (see [`worker_loop`]).
fn compute(runner: &Runner, key: &CellKey) -> CellOutcome {
    let config = key
        .config()
        .map_err(|e| CellError::Failed(format!("invalid machine: {e}")))?;
    match runner.run_kernel_safe(key.kernel, key.scale, &config) {
        Ok(result) => result
            .map(|result| CellValue::Computed(Box::new(result)))
            .map_err(|e| CellError::Failed(e.to_string())),
        Err(panic_message) => Err(CellError::Panicked(panic_message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tpi_compiler::OptLevel;
    use tpi_proto::SchemeId;
    use tpi_workloads::{Kernel, Scale};

    fn key(seed: u64) -> CellKey {
        CellKey {
            kernel: Kernel::Flo52,
            scale: Scale::Test,
            scheme: SchemeId::TPI,
            opt_level: OptLevel::Full,
            procs: 16,
            line_words: 4,
            cache_bytes: 64 * 1024,
            tag_bits: 8,
            seed,
        }
    }

    /// A pool under the fault spec `faults` (`cell_latency=1:MS` holds
    /// every cell in flight for `MS`).
    fn pool(workers: usize, cap: usize, faults: Option<&str>) -> (WorkerPool, Arc<CellStore>) {
        let store = Arc::new(CellStore::default());
        let pool = WorkerPool::start(
            workers,
            cap,
            Arc::new(Runner::serial()),
            Arc::clone(&store),
            Arc::new(Metrics::default()),
            faults.map(|spec| Arc::new(FaultPlan::parse(spec).unwrap())),
        );
        (pool, store)
    }

    #[test]
    fn memory_lru_evicts_and_disk_recovers_byte_identically() {
        let dir = std::env::temp_dir().join(format!("tpi-pool-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Arc::new(Metrics::default());
        let (disk, _) = DiskCache::open(&dir, None, Arc::clone(&metrics)).unwrap();
        let disk = Arc::new(disk);
        let store = Arc::new(CellStore::new(
            2,
            Some(Arc::clone(&disk)),
            Some(Arc::clone(&metrics)),
        ));
        let pool = WorkerPool::start(
            1,
            8,
            Arc::new(Runner::serial()),
            Arc::clone(&store),
            Arc::clone(&metrics),
            None,
        );
        let mut rendered = Vec::new();
        for seed in 70..73 {
            let CellPlan::Lead(job) = store.plan(key(seed)) else {
                panic!("fresh cells must be led");
            };
            let slot = Arc::clone(&job.slot);
            pool.submit_batch(vec![job]).unwrap();
            let outcome = slot
                .wait_until(Instant::now() + Duration::from_secs(30))
                .unwrap();
            let Ok(value) = outcome.as_ref() else {
                panic!("cell computes: {outcome:?}");
            };
            rendered.push(value.rendered(&key(seed)));
        }
        // Three results through a 2-cell memory bound: one eviction,
        // every result still on disk.
        assert_eq!(store.results_cached(), 2);
        assert!(metrics.memory_evictions.load(Ordering::Relaxed) >= 1);
        assert_eq!(disk.entries(), 3);
        // The evicted cell (the least-recently used: seed 70) comes back
        // as a Cached plan via the disk, byte-identical to the original.
        let CellPlan::Cached(outcome) = store.plan(key(70)) else {
            panic!("disk-held cell must be a cache hit");
        };
        let Ok(value) = outcome.as_ref() else {
            panic!("recovered cell is a success: {outcome:?}");
        };
        assert!(matches!(value, CellValue::Recovered(_)));
        assert_eq!(value.rendered(&key(70)), rendered[0]);
        // A cold store over the same directory is warm too.
        let cold = CellStore::new(8, Some(Arc::clone(&disk)), None);
        let CellPlan::Cached(outcome) = cold.plan(key(71)) else {
            panic!("restart must be warm");
        };
        assert_eq!(
            outcome.as_ref().as_ref().unwrap().rendered(&key(71)),
            rendered[1]
        );
        pool.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn computes_and_caches_a_cell() {
        let (pool, store) = pool(1, 4, None);
        let CellPlan::Lead(job) = store.plan(key(1)) else {
            panic!("fresh cell must be led");
        };
        let slot = Arc::clone(&job.slot);
        pool.submit_batch(vec![job]).unwrap();
        let outcome = slot
            .wait_until(Instant::now() + Duration::from_secs(30))
            .expect("cell completes");
        assert!(outcome.is_ok());
        // Second plan hits the result cache.
        assert!(matches!(store.plan(key(1)), CellPlan::Cached(_)));
        assert_eq!(store.results_cached(), 1);
        assert_eq!(store.inflight_cells(), 0);
        pool.shutdown();
    }

    #[test]
    fn duplicate_inflight_cells_join_one_flight() {
        // A long artificial delay holds the cell in flight while the
        // second plan is made.
        let (pool, store) = pool(1, 4, Some("cell_latency=1:200"));
        let CellPlan::Lead(job) = store.plan(key(2)) else {
            panic!("fresh cell must be led");
        };
        let lead_slot = Arc::clone(&job.slot);
        pool.submit_batch(vec![job]).unwrap();
        let CellPlan::Joined(join_slot) = store.plan(key(2)) else {
            panic!("in-flight cell must be joined");
        };
        assert!(Arc::ptr_eq(&lead_slot, &join_slot));
        let a = lead_slot
            .wait_until(Instant::now() + Duration::from_secs(30))
            .unwrap();
        let b = join_slot
            .wait_until(Instant::now() + Duration::from_secs(30))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "both waiters see the same outcome");
        pool.shutdown();
    }

    #[test]
    fn queue_overflow_is_all_or_nothing() {
        let (pool, store) = pool(1, 2, Some("cell_latency=1:300"));
        // Occupy the worker and fill the queue.
        let mut jobs = Vec::new();
        for seed in 10..13 {
            match store.plan(key(seed)) {
                CellPlan::Lead(job) => jobs.push(job),
                _ => panic!("fresh cells must be led"),
            }
        }
        // 3 jobs > capacity 2: refused as a unit, jobs returned.
        let back = pool.submit_batch(jobs).unwrap_err();
        assert_eq!(back.len(), 3);
        assert_eq!(pool.queue_depth(), 0);
        // Failing them with Overloaded releases any joined waiter.
        for job in &back {
            store.finish(job, Err(CellError::Overloaded));
        }
        let outcome = back[0]
            .slot
            .wait_until(Instant::now() + Duration::from_millis(10))
            .unwrap();
        assert!(matches!(outcome.as_ref(), Err(CellError::Overloaded)));
        // Overloaded is transient: not cached, the cell can be retried.
        assert!(matches!(store.plan(key(10)), CellPlan::Lead(_)));
        pool.shutdown();
    }

    #[test]
    fn wait_until_respects_the_deadline() {
        let slot = FlightSlot::<CellOutcome>::new();
        let t0 = Instant::now();
        assert!(slot
            .wait_until(Instant::now() + Duration::from_millis(30))
            .is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let (pool, store) = pool(2, 8, Some("cell_latency=1:20"));
        let mut slots = Vec::new();
        let mut jobs = Vec::new();
        for seed in 20..26 {
            let CellPlan::Lead(job) = store.plan(key(seed)) else {
                panic!("fresh cells must be led");
            };
            slots.push(Arc::clone(&job.slot));
            jobs.push(job);
        }
        pool.submit_batch(jobs).unwrap();
        pool.shutdown();
        // Every queued job completed before the workers exited.
        for slot in slots {
            assert!(slot
                .wait_until(Instant::now() + Duration::from_millis(1))
                .is_some());
        }
        assert_eq!(store.results_cached(), 6);
    }

    #[test]
    fn a_panicking_cell_fails_only_its_waiters_and_is_not_cached() {
        let (pool, store) = pool(1, 4, Some("seed=1,worker_panic=1@1"));
        let CellPlan::Lead(job) = store.plan(key(40)) else {
            panic!("fresh cell must be led");
        };
        let slot = Arc::clone(&job.slot);
        pool.submit_batch(vec![job]).unwrap();
        let outcome = slot
            .wait_until(Instant::now() + Duration::from_secs(30))
            .expect("slot resolves despite the panic");
        let Err(CellError::Panicked(message)) = outcome.as_ref() else {
            panic!("expected a contained panic, got {outcome:?}");
        };
        assert!(message.starts_with(INJECTED_PANIC_PREFIX), "{message}");
        // Nothing cached, no wedged flight: the retry recomputes and
        // succeeds (the fault's fire cap is exhausted).
        assert_eq!(store.results_cached(), 0);
        assert_eq!(store.inflight_cells(), 0);
        let CellPlan::Lead(retry) = store.plan(key(40)) else {
            panic!("failed cell must be retryable");
        };
        let retry_slot = Arc::clone(&retry.slot);
        pool.submit_batch(vec![retry]).unwrap();
        let outcome = retry_slot
            .wait_until(Instant::now() + Duration::from_secs(30))
            .unwrap();
        assert!(outcome.is_ok(), "retry must succeed: {outcome:?}");
        pool.shutdown();
    }

    #[test]
    fn a_dying_worker_is_respawned_and_the_pool_keeps_serving() {
        // Every cell kills its worker after publishing; supervision must
        // respawn it each time so all cells still complete.
        let plan = Arc::new(FaultPlan::parse("seed=2,worker_exit=1").unwrap());
        let store = Arc::new(CellStore::default());
        let metrics = Arc::new(Metrics::default());
        let pool = WorkerPool::start(
            1,
            8,
            Arc::new(Runner::serial()),
            Arc::clone(&store),
            Arc::clone(&metrics),
            Some(plan),
        );
        let mut slots = Vec::new();
        let mut jobs = Vec::new();
        for seed in 50..53 {
            let CellPlan::Lead(job) = store.plan(key(seed)) else {
                panic!("fresh cells must be led");
            };
            slots.push(Arc::clone(&job.slot));
            jobs.push(job);
        }
        pool.submit_batch(jobs).unwrap();
        for slot in &slots {
            let outcome = slot
                .wait_until(Instant::now() + Duration::from_secs(30))
                .expect("cell completes despite worker deaths");
            assert!(outcome.is_ok());
        }
        // The dying thread counts its restart *after* publishing the
        // cell, so the last increment can trail the slot: poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.worker_restarts.load(Ordering::Relaxed) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(metrics.worker_restarts.load(Ordering::Relaxed) >= 3);
        pool.shutdown();
    }

    #[test]
    fn shutdown_terminally_fails_jobs_no_worker_can_drain() {
        // One worker that dies after its first cell, with stop already
        // requested so it is not respawned: the remaining queued jobs
        // must be answered with ShuttingDown, not wedged.
        let (pool, store) = pool(1, 8, Some("seed=3,worker_exit=1,cell_latency=1:200"));
        let mut slots = Vec::new();
        let mut jobs = Vec::new();
        for seed in 60..63 {
            let CellPlan::Lead(job) = store.plan(key(seed)) else {
                panic!("fresh cells must be led");
            };
            slots.push(Arc::clone(&job.slot));
            jobs.push(job);
        }
        pool.submit_batch(jobs).unwrap();
        // The worker is busy with the first cell for ~200ms; stop now.
        pool.shutdown();
        let mut shut_down = 0;
        for slot in &slots {
            let outcome = slot
                .wait_until(Instant::now() + Duration::from_millis(10))
                .expect("every slot resolves by the end of shutdown");
            if matches!(outcome.as_ref(), Err(CellError::ShuttingDown)) {
                shut_down += 1;
            }
        }
        assert_eq!(shut_down, 2, "the two undrained jobs fail terminally");
        assert_eq!(store.inflight_cells(), 0);
    }
}
