//! The experiment engine: artifact memoization and parallel grid
//! execution.
//!
//! The pipeline behind every experiment is
//!
//! ```text
//! program --mark--> marking --interpret--> trace --simulate--> SimResult
//! ```
//!
//! and only the last stage depends on the coherence scheme or the cache
//! geometry. A 4-scheme × 5-point sweep therefore needs each program
//! built once, marked once per compiler option, and interpreted once per
//! trace option — not once per grid cell. The [`Runner`] owns an
//! [`artifact cache`](RunnerStats) that enforces exactly that sharing,
//! and fans the remaining per-cell simulations across OS threads with
//! [`std::thread::scope`].
//!
//! Determinism: every pipeline stage is a pure function of its inputs,
//! cells are simulated independently, and results are returned in
//! submission order — so a parallel, memoized grid produces *bit-identical*
//! results to a serial, non-memoized loop. The equivalence tests in this
//! module and in `tests/runner_equivalence.rs` keep that invariant
//! executable.
//!
//! # Quickstart
//!
//! ```
//! use tpi::Runner;
//! use tpi_proto::{registry, SchemeId};
//! use tpi_workloads::{Kernel, Scale};
//!
//! let runner = Runner::new();
//! let grid = runner
//!     .grid()
//!     .kernels([Kernel::Flo52, Kernel::Ocean])
//!     .scale(Scale::Test)
//!     .schemes(registry::global().main_schemes())
//!     .run()?;
//! let tpi = grid.get(Kernel::Flo52, SchemeId::TPI);
//! let hw = grid.get(Kernel::Flo52, SchemeId::FULL_MAP);
//! assert!(tpi.sim.total_cycles > 0 && hw.sim.total_cycles > 0);
//! // 8 cells, but each kernel was built, marked, and interpreted once.
//! assert_eq!(runner.stats().traces_built, 2);
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```

use crate::config::ExperimentConfig;
use crate::experiment::{simulate_cell, ExperimentResult};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tpi_compiler::{mark_program, CompilerOptions, Marking};
use tpi_ir::Program;
use tpi_proto::SchemeId;
use tpi_trace::{generate_trace, EpochEvents, Event, Trace, TraceError, TraceOptions};
use tpi_workloads::{Kernel, Scale};

/// Where a cell's program comes from.
#[derive(Debug, Clone)]
pub enum ProgramSource {
    /// A benchmark kernel at a given scale, built on demand.
    Kernel(Kernel, Scale),
    /// A caller-supplied program. The name is the cache identity: reusing
    /// a name for a *different* program in one runner is a caller bug.
    Custom {
        /// Cache key for this program.
        name: Arc<str>,
        /// The program itself.
        program: Arc<Program>,
    },
}

impl ProgramSource {
    fn key(&self) -> ProgramKey {
        match self {
            ProgramSource::Kernel(k, s) => ProgramKey::Kernel(*k, *s),
            ProgramSource::Custom { name, .. } => ProgramKey::Custom(Arc::clone(name)),
        }
    }

    /// Human-readable label (kernel name or the custom name).
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            ProgramSource::Kernel(k, _) => k.name(),
            ProgramSource::Custom { name, .. } => name,
        }
    }
}

/// Cache identity of a program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ProgramKey {
    Kernel(Kernel, Scale),
    Custom(Arc<str>),
}

/// One grid cell: a program plus the full configuration to run it under.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The program to run.
    pub source: ProgramSource,
    /// Every knob of the run.
    pub config: ExperimentConfig,
}

/// The scheme-independent artifacts of one cell, as produced by
/// [`Runner::prepare`]: everything the pipeline computes before a
/// coherence engine gets involved.
#[derive(Debug, Clone)]
pub struct PreparedCell {
    /// The cell these artifacts belong to.
    pub spec: RunSpec,
    /// Built (or cache-shared) program.
    pub program: Arc<Program>,
    /// The compiler's marking under the cell's options.
    pub marking: Arc<Marking>,
    /// The interpreted trace under the cell's options.
    pub trace: Arc<Trace>,
}

type MarkingKey = (ProgramKey, CompilerOptions);
type TraceKey = (ProgramKey, CompilerOptions, TraceOptions);

#[derive(Default)]
struct ArtifactStore {
    programs: HashMap<ProgramKey, Arc<Program>>,
    markings: HashMap<MarkingKey, Arc<Marking>>,
    traces: HashMap<TraceKey, Arc<Trace>>,
    /// The memoized trace keys, least recently used first; kept only under
    /// [`Runner::with_trace_limit`].
    trace_use: VecDeque<TraceKey>,
}

impl ArtifactStore {
    /// Marks `used` (in order) as the most recently used traces, then
    /// drops the least recently used ones beyond `limit`.
    fn keep_recent_traces(&mut self, used: impl IntoIterator<Item = TraceKey>, limit: usize) {
        for key in used {
            // A trace another call dropped since this one found it.
            if !self.traces.contains_key(&key) {
                continue;
            }
            if let Some(at) = self.trace_use.iter().position(|k| *k == key) {
                self.trace_use.remove(at);
            }
            self.trace_use.push_back(key);
        }
        while self.trace_use.len() > limit {
            if let Some(old) = self.trace_use.pop_front() {
                self.traces.remove(&old);
            }
        }
    }
}

/// Counters describing how much work the cache avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Programs built (cache misses).
    pub programs_built: u64,
    /// Program cache hits.
    pub program_hits: u64,
    /// Marking passes run (cache misses).
    pub markings_built: u64,
    /// Marking cache hits.
    pub marking_hits: u64,
    /// Traces interpreted (cache misses).
    pub traces_built: u64,
    /// Trace cache hits.
    pub trace_hits: u64,
    /// Cells actually simulated.
    pub cells_simulated: u64,
    /// Cells answered by copying an identical sibling cell's result.
    pub cells_deduped: u64,
}

/// Hit/miss counters of one memo-store stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCache {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to compute (and then stored) their artifact.
    pub misses: u64,
}

impl StageCache {
    /// Fraction of lookups answered from the store (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// The [`Runner`]'s memo-store counters, stage by stage, as hit/miss
/// pairs — the shape an observability layer wants (the `tpi-serve`
/// `/metrics` endpoint and `repro --timing` both report these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Program builds.
    pub programs: StageCache,
    /// Marking passes.
    pub markings: StageCache,
    /// Trace interpretations.
    pub traces: StageCache,
    /// Simulated cells (hits are within-grid deduplications).
    pub cells: StageCache,
}

impl CacheStats {
    /// All stages summed.
    #[must_use]
    pub fn total(&self) -> StageCache {
        StageCache {
            hits: self.programs.hits + self.markings.hits + self.traces.hits + self.cells.hits,
            misses: self.programs.misses
                + self.markings.misses
                + self.traces.misses
                + self.cells.misses,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stage = |s: &StageCache| format!("{}/{} hits", s.hits, s.hits + s.misses);
        write!(
            f,
            "programs {} ({:.0}%), markings {} ({:.0}%), traces {} ({:.0}%), cells {} ({:.0}%)",
            stage(&self.programs),
            100.0 * self.programs.hit_rate(),
            stage(&self.markings),
            100.0 * self.markings.hit_rate(),
            stage(&self.traces),
            100.0 * self.traces.hit_rate(),
            stage(&self.cells),
            100.0 * self.cells.hit_rate(),
        )
    }
}

impl RunnerStats {
    /// The counters regrouped as per-stage hit/miss pairs.
    #[must_use]
    pub fn cache(&self) -> CacheStats {
        CacheStats {
            programs: StageCache {
                hits: self.program_hits,
                misses: self.programs_built,
            },
            markings: StageCache {
                hits: self.marking_hits,
                misses: self.markings_built,
            },
            traces: StageCache {
                hits: self.trace_hits,
                misses: self.traces_built,
            },
            cells: StageCache {
                hits: self.cells_deduped,
                misses: self.cells_simulated,
            },
        }
    }
}

#[derive(Default)]
struct StatCells {
    programs_built: AtomicU64,
    program_hits: AtomicU64,
    markings_built: AtomicU64,
    marking_hits: AtomicU64,
    traces_built: AtomicU64,
    trace_hits: AtomicU64,
    cells_simulated: AtomicU64,
    cells_deduped: AtomicU64,
}

/// The experiment engine: a memoizing artifact cache plus a parallel,
/// deterministic grid executor. See the [module docs](self).
pub struct Runner {
    threads: usize,
    memoize: bool,
    /// At most this many traces stay memoized (see
    /// [`Runner::with_trace_limit`]); `None` keeps every trace.
    trace_limit: Option<usize>,
    store: Mutex<ArtifactStore>,
    stats: StatCells,
    prof: crate::prof::Profiler,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl Runner {
    /// A runner using every available core (or `TPI_THREADS` if set).
    #[must_use]
    pub fn new() -> Self {
        let threads = std::env::var("TPI_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Runner::with_threads(threads)
    }

    /// A single-threaded runner (still memoizing).
    #[must_use]
    pub fn serial() -> Self {
        Runner::with_threads(1)
    }

    /// A runner with an explicit worker count (`0` is clamped to 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            memoize: true,
            trace_limit: None,
            store: Mutex::new(ArtifactStore::default()),
            stats: StatCells::default(),
            prof: crate::prof::Profiler::new(),
        }
    }

    /// Inert shim: returns `self` unchanged. Every cell replays on one
    /// engine; this remains only because the repository benchmark
    /// package calls it, and goes when the benchmark drops its
    /// `sim.sharded.*` metrics.
    #[must_use]
    pub fn with_sim_shards(self, _shards: usize) -> Self {
        self
    }

    /// Disables the artifact cache: every cell rebuilds, re-marks, and
    /// re-interprets its own pipeline, and identical cells are not
    /// deduplicated — the pre-engine behaviour. Results are bit-identical
    /// to the memoized path; this exists as a timing baseline
    /// (`repro --fresh`) and for the equivalence tests.
    #[must_use]
    pub fn without_memoization(mut self) -> Self {
        self.memoize = false;
        self
    }

    /// Keeps at most `traces` interpreted traces memoized, dropping the
    /// least recently used first (`0` is clamped to 1). Programs and
    /// markings stay memoized without a bound: their keys are few, while
    /// every new seed or processor count is a new trace. Results are
    /// bit-identical for any limit.
    ///
    /// For long-lived runners that cache finished cells themselves: a
    /// `tpi-serve` replica answers repeated cells from its result cache,
    /// so it needs traces only while the schemes of one grid share them,
    /// not for every seed it was ever sent.
    #[must_use]
    pub fn with_trace_limit(mut self, traces: usize) -> Self {
        self.trace_limit = Some(traces.max(1));
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the memo-store counters as per-stage hit/miss
    /// pairs. Equivalent to `self.stats().cache()`.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stats().cache()
    }

    /// A deterministic snapshot of the `tpi-prof` stage profiler: wall
    /// time per pipeline stage (`prepare/build`, `prepare/mark`,
    /// `prepare/interp`, `simulate`, …, plus the self-measured sub-stages
    /// the lower layers report, e.g. `simulate/replay`) and monotonic
    /// counters (`sim_events`, engine op counts).
    ///
    /// `RunnerStats` stays a `Copy` counter block; the profile lives here
    /// because a report carries heap-allocated stage paths.
    #[must_use]
    pub fn profile(&self) -> crate::prof::ProfileReport {
        self.prof.report()
    }

    /// Attributes one simulated cell's self-measured host profile to the
    /// report's stable stage paths and counters.
    fn harvest_sim(&self, sim: &tpi_sim::SimResult) {
        self.prof.add("simulate/replay", sim.host.replay_nanos, 1);
        self.prof
            .add("simulate/boundary", sim.host.boundary_nanos, 1);
        self.prof.incr("sim_events", sim.host.events);
        self.prof.incr("sim_switches", sim.host.switches);
        self.prof.incr("sim_run_ahead", sim.host.run_ahead);
        self.prof.incr("sim_epochs", sim.epochs);
        for (name, n) in &sim.host.ops {
            self.prof.incr(name, *n);
        }
    }

    /// Attributes one freshly interpreted trace's self-measured host
    /// profile to the report.
    fn harvest_trace(&self, trace: &Trace) {
        self.prof
            .add("prepare/interp/serial", trace.host.serial_nanos, 1);
        self.prof
            .add("prepare/interp/doall", trace.host.doall_nanos, 1);
        self.prof.incr("interp_epochs", trace.stats.epochs);
        let events: usize = trace.epochs.iter().map(EpochEvents::len).sum();
        self.prof.incr("interp_events", events as u64);
        let bytes = events.saturating_mul(std::mem::size_of::<Event>());
        self.prof.incr("interp_event_bytes", bytes as u64);
    }

    /// A snapshot of the cache counters.
    #[must_use]
    pub fn stats(&self) -> RunnerStats {
        RunnerStats {
            programs_built: self.stats.programs_built.load(Ordering::Relaxed),
            program_hits: self.stats.program_hits.load(Ordering::Relaxed),
            markings_built: self.stats.markings_built.load(Ordering::Relaxed),
            marking_hits: self.stats.marking_hits.load(Ordering::Relaxed),
            traces_built: self.stats.traces_built.load(Ordering::Relaxed),
            trace_hits: self.stats.trace_hits.load(Ordering::Relaxed),
            cells_simulated: self.stats.cells_simulated.load(Ordering::Relaxed),
            cells_deduped: self.stats.cells_deduped.load(Ordering::Relaxed),
        }
    }

    /// Starts an empty cross-product grid over this runner's cache.
    #[must_use]
    pub fn grid(&self) -> GridBuilder<'_> {
        GridBuilder {
            runner: self,
            scale: Scale::Test,
            base: ExperimentConfig::paper(),
            kernels: Vec::new(),
            programs: Vec::new(),
            schemes: Vec::new(),
            variants: Vec::new(),
        }
    }

    /// Starts an empty free-form cell list (for ragged grids the
    /// cross-product [`GridBuilder`] cannot express).
    #[must_use]
    pub fn cells(&self) -> CellGrid<'_> {
        CellGrid {
            runner: self,
            cells: Vec::new(),
        }
    }

    /// Runs one kernel, reusing cached artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the program races under the configured
    /// schedule.
    pub fn run_kernel(
        &self,
        kernel: Kernel,
        scale: Scale,
        config: &ExperimentConfig,
    ) -> Result<ExperimentResult, TraceError> {
        let mut grid = self.cells();
        let cell = grid.add(kernel, scale, *config);
        Ok(grid.run()?.take(cell))
    }

    /// Runs a caller-supplied program, reusing cached artifacts. `name`
    /// is the cache identity (see [`ProgramSource::Custom`]).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if the program races under the configured
    /// schedule.
    pub fn run_program(
        &self,
        name: &str,
        program: impl Into<Arc<Program>>,
        config: &ExperimentConfig,
    ) -> Result<ExperimentResult, TraceError> {
        let mut grid = self.cells();
        let cell = grid.add_program(name, program, *config);
        Ok(grid.run()?.take(cell))
    }

    /// Locks the artifact store, tolerating poisoning: every insert is
    /// complete-on-write, so a panicking worker thread cannot leave a
    /// half-written entry behind.
    fn store(&self) -> std::sync::MutexGuard<'_, ArtifactStore> {
        crate::sync::lock_unpoisoned(&self.store)
    }

    /// Panic-safe variant of [`run_kernel`](Self::run_kernel): a panic
    /// anywhere in the build → mark → interpret → simulate pipeline is
    /// contained and reported as the outer `Err(message)` instead of
    /// unwinding through the caller's thread. The runner stays usable
    /// afterwards — its store locks tolerate poisoning and every cache
    /// insert is complete-on-write, so nothing the panicking cell touched
    /// is observable half-written.
    ///
    /// Long-lived callers that feed one `Runner` from many worker threads
    /// (the `tpi-serve` pool) use this entry so one pathological cell
    /// cannot take the engine down.
    ///
    /// # Errors
    ///
    /// The outer error is a panic message; the inner error is an ordinary
    /// [`TraceError`] from a non-panicking run.
    pub fn run_kernel_safe(
        &self,
        kernel: Kernel,
        scale: Scale,
        config: &ExperimentConfig,
    ) -> Result<Result<ExperimentResult, TraceError>, String> {
        crate::sync::catch_cell_panic(|| self.run_kernel(kernel, scale, config))
    }

    /// Runs the scheme-independent front of the pipeline — build, mark,
    /// interpret — for every cell, exactly as a simulation grid would
    /// (memoized, parallel, deterministic), but stops before simulation
    /// and hands back the per-cell artifacts.
    ///
    /// This is the entry point for the analysis layer's staleness-oracle
    /// replays: an oracle pass over a kernel×config cell reuses the same
    /// cached trace that a simulation of that cell uses, so linting after
    /// (or before) an experiment run never re-interprets a program.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in submission order if any cell's
    /// program races under its schedule.
    pub fn prepare(&self, cells: &[RunSpec]) -> Result<Vec<PreparedCell>, TraceError> {
        if self.memoize {
            return self.build_artifacts(cells);
        }
        let prepare_scope = self.prof.scope("prepare");
        let prepared = parallel_map(self.threads, cells, |cell| self.prepare_fresh(cell));
        prepare_scope.finish();
        prepared.into_iter().collect()
    }

    /// Builds, marks and interprets one cell without the artifact cache:
    /// the pipeline front of [`prepare`](Self::prepare) and
    /// [`execute_fresh`](Self::execute_fresh) when memoization is off.
    fn prepare_fresh(&self, cell: &RunSpec) -> Result<PreparedCell, TraceError> {
        self.stats.programs_built.fetch_add(1, Ordering::Relaxed);
        self.stats.markings_built.fetch_add(1, Ordering::Relaxed);
        self.stats.traces_built.fetch_add(1, Ordering::Relaxed);
        let program = match &cell.source {
            ProgramSource::Kernel(k, s) => Arc::new(k.build(*s)),
            ProgramSource::Custom { program, .. } => Arc::clone(program),
        };
        let marking = Arc::new(mark_program(
            program.as_ref(),
            &cell.config.compiler_options(),
        ));
        let trace = generate_trace(
            program.as_ref(),
            marking.as_ref(),
            &cell.config.trace_options(),
        )
        .map(Arc::new)?;
        self.harvest_trace(&trace);
        Ok(PreparedCell {
            spec: cell.clone(),
            program,
            marking,
            trace,
        })
    }

    /// Phases 1–3 of [`execute`](Self::execute): fills the artifact store
    /// with every program, marking, and trace `cells` needs, and returns
    /// each cell's artifacts in submission order.
    fn build_artifacts(&self, cells: &[RunSpec]) -> Result<Vec<PreparedCell>, TraceError> {
        let _prepare_scope = self.prof.scope("prepare");
        // Phase 1 — programs. Unique keys in first-appearance order keep
        // the whole pipeline deterministic.
        let mut program_jobs: Vec<(ProgramKey, Option<Arc<Program>>)> = Vec::new();
        {
            let store = self.store();
            for cell in cells {
                let key = cell.source.key();
                if store.programs.contains_key(&key) || program_jobs.iter().any(|(k, _)| *k == key)
                {
                    self.stats.program_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let prebuilt = match &cell.source {
                    ProgramSource::Kernel(..) => None,
                    ProgramSource::Custom { program, .. } => Some(Arc::clone(program)),
                };
                program_jobs.push((key, prebuilt));
            }
        }
        self.stats
            .programs_built
            .fetch_add(program_jobs.len() as u64, Ordering::Relaxed);
        let built = {
            let _s = self.prof.scope("build");
            parallel_map(self.threads, &program_jobs, |(key, prebuilt)| {
                match (key, prebuilt) {
                    (_, Some(p)) => Arc::clone(p),
                    (ProgramKey::Kernel(k, s), None) => Arc::new(k.build(*s)),
                    (ProgramKey::Custom(name), None) => {
                        unreachable!("custom program {name} submitted without a body")
                    }
                }
            })
        };
        {
            let mut store = self.store();
            for ((key, _), program) in program_jobs.into_iter().zip(built) {
                store.programs.insert(key, program);
            }
        }

        // Phase 2 — markings (scheme-independent).
        let mut marking_jobs: Vec<(MarkingKey, Arc<Program>)> = Vec::new();
        {
            let store = self.store();
            for cell in cells {
                let key = (cell.source.key(), cell.config.compiler_options());
                if store.markings.contains_key(&key) || marking_jobs.iter().any(|(k, _)| *k == key)
                {
                    self.stats.marking_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let program = Arc::clone(&store.programs[&key.0]);
                marking_jobs.push((key, program));
            }
        }
        self.stats
            .markings_built
            .fetch_add(marking_jobs.len() as u64, Ordering::Relaxed);
        let marked = {
            let _s = self.prof.scope("mark");
            parallel_map(self.threads, &marking_jobs, |(key, program)| {
                Arc::new(mark_program(program.as_ref(), &key.1))
            })
        };
        {
            let mut store = self.store();
            for ((key, _), marking) in marking_jobs.into_iter().zip(marked) {
                store.markings.insert(key, marking);
            }
        }

        // Phase 3 — traces (scheme- and cache-geometry-independent). A
        // hit is taken out of the store under the lock that finds it, so a
        // concurrent call trimming a bounded store cannot drop it first.
        let trace_key = |cell: &RunSpec| -> TraceKey {
            (
                cell.source.key(),
                cell.config.compiler_options(),
                cell.config.trace_options(),
            )
        };
        let mut found: HashMap<TraceKey, Arc<Trace>> = HashMap::new();
        let mut trace_jobs: Vec<(TraceKey, Arc<Program>, Arc<Marking>)> = Vec::new();
        {
            let store = self.store();
            for cell in cells {
                let key = trace_key(cell);
                if found.contains_key(&key) || trace_jobs.iter().any(|(k, ..)| *k == key) {
                    self.stats.trace_hits.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Some(trace) = store.traces.get(&key) {
                    self.stats.trace_hits.fetch_add(1, Ordering::Relaxed);
                    found.insert(key, Arc::clone(trace));
                    continue;
                }
                let program = Arc::clone(&store.programs[&key.0]);
                let marking = Arc::clone(&store.markings[&(key.0.clone(), key.1)]);
                trace_jobs.push((key, program, marking));
            }
        }
        self.stats
            .traces_built
            .fetch_add(trace_jobs.len() as u64, Ordering::Relaxed);
        let traced = {
            let _s = self.prof.scope("interp");
            parallel_map(self.threads, &trace_jobs, |(key, program, marking)| {
                generate_trace(program.as_ref(), marking.as_ref(), &key.2).map(Arc::new)
            })
        };
        for trace in traced.iter().filter_map(|t| t.as_ref().ok()) {
            self.harvest_trace(trace);
        }
        let mut store = self.store();
        let mut first_error = None;
        for ((key, ..), trace) in trace_jobs.into_iter().zip(traced) {
            match trace {
                Ok(trace) => {
                    store.traces.insert(key.clone(), Arc::clone(&trace));
                    found.insert(key, trace);
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(limit) = self.trace_limit {
            store.keep_recent_traces(cells.iter().map(trace_key), limit);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(cells
            .iter()
            .map(|cell| {
                let key = trace_key(cell);
                PreparedCell {
                    spec: cell.clone(),
                    program: Arc::clone(&store.programs[&key.0]),
                    marking: Arc::clone(&store.markings[&(key.0.clone(), key.1)]),
                    trace: Arc::clone(&found[&key]),
                }
            })
            .collect())
    }

    /// Executes `cells`, returning results in submission order.
    fn execute(&self, cells: &[RunSpec]) -> Result<Vec<ExperimentResult>, TraceError> {
        if !self.memoize {
            return self.execute_fresh(cells);
        }
        let prepared = self.build_artifacts(cells)?;

        // Phase 4 — simulate. Identical cells are computed once and
        // copied; distinct cells fan out across the worker threads.
        let mut unique: Vec<&PreparedCell> = Vec::new();
        let mut cell_to_unique: Vec<usize> = Vec::with_capacity(cells.len());
        for cell in &prepared {
            let same = unique.iter().position(|u| {
                u.spec.config == cell.spec.config && u.spec.source.key() == cell.spec.source.key()
            });
            if let Some(i) = same {
                self.stats.cells_deduped.fetch_add(1, Ordering::Relaxed);
                cell_to_unique.push(i);
                continue;
            }
            cell_to_unique.push(unique.len());
            unique.push(cell);
        }
        self.stats
            .cells_simulated
            .fetch_add(unique.len() as u64, Ordering::Relaxed);
        let simulated = {
            let _s = self.prof.scope("simulate");
            parallel_map(self.threads, &unique, |cell| {
                simulate_cell(
                    &cell.spec.config,
                    cell.trace.as_ref(),
                    cell.marking.as_ref(),
                )
            })
        };
        for r in &simulated {
            self.harvest_sim(&r.sim);
        }
        Ok(cell_to_unique
            .into_iter()
            .map(|i| simulated[i].clone())
            .collect())
    }

    /// The no-cache path: each cell runs its full pipeline independently
    /// (still fanned across the worker threads).
    fn execute_fresh(&self, cells: &[RunSpec]) -> Result<Vec<ExperimentResult>, TraceError> {
        let fresh_scope = self.prof.scope("fresh");
        let results = parallel_map(self.threads, cells, |cell| {
            let cell = self.prepare_fresh(cell)?;
            Ok(simulate_cell(&cell.spec.config, &cell.trace, &cell.marking))
        });
        fresh_scope.finish();
        for r in results.iter().filter_map(|r| r.as_ref().ok()) {
            self.harvest_sim(&r.sim);
        }
        self.stats
            .cells_simulated
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        // First error in submission order, as in the memoized path.
        results.into_iter().collect()
    }
}

/// Runs `f` over `items` on up to `threads` workers, the calling thread
/// being one of them; results keep item order. Falls back to a plain loop
/// when one worker suffices.
///
/// The calling thread works too, so memory that an earlier stage freed on
/// it (the interpreter's table, when one trace was interpreted inline) is
/// reused by the cells it simulates rather than staying resident beside
/// the workers' own heaps.
fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    threads: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = f(item);
        *crate::sync::lock_unpoisoned(&slots[i]) = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|m| crate::sync::into_inner_unpoisoned(m).expect("worker filled every claimed slot"))
        .collect()
}

/// Handle to one submitted cell of a [`CellGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId(usize);

/// A free-form list of grid cells (ragged sweeps, mixed kernels and
/// custom programs). Submission order is result order.
pub struct CellGrid<'r> {
    runner: &'r Runner,
    cells: Vec<RunSpec>,
}

impl CellGrid<'_> {
    /// Queues a kernel run; the returned id indexes the outcome.
    pub fn add(&mut self, kernel: Kernel, scale: Scale, config: ExperimentConfig) -> CellId {
        self.cells.push(RunSpec {
            source: ProgramSource::Kernel(kernel, scale),
            config,
        });
        CellId(self.cells.len() - 1)
    }

    /// Queues a custom-program run; `name` is the cache identity.
    pub fn add_program(
        &mut self,
        name: &str,
        program: impl Into<Arc<Program>>,
        config: ExperimentConfig,
    ) -> CellId {
        self.cells.push(RunSpec {
            source: ProgramSource::Custom {
                name: Arc::from(name),
                program: program.into(),
            },
            config,
        });
        CellId(self.cells.len() - 1)
    }

    /// Number of queued cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Executes every queued cell (memoized, parallel, deterministic).
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in submission order if any cell's
    /// program races under its schedule.
    pub fn run(self) -> Result<GridOutcome, TraceError> {
        let results = self.runner.execute(&self.cells)?;
        Ok(GridOutcome { results })
    }
}

/// Results of a [`CellGrid`] run, indexed by [`CellId`].
#[derive(Debug, Clone)]
pub struct GridOutcome {
    results: Vec<ExperimentResult>,
}

impl GridOutcome {
    /// The result of one cell.
    #[must_use]
    pub fn get(&self, id: CellId) -> &ExperimentResult {
        &self.results[id.0]
    }

    /// Moves one cell's result out (clones if other handles remain).
    #[must_use]
    pub fn take(&self, id: CellId) -> ExperimentResult {
        self.results[id.0].clone()
    }
}

impl std::ops::Index<CellId> for GridOutcome {
    type Output = ExperimentResult;

    fn index(&self, id: CellId) -> &ExperimentResult {
        &self.results[id.0]
    }
}

type VariantFn = Rc<dyn Fn(&mut ExperimentConfig)>;

/// Fluent cross-product grid: kernels × schemes × swept variants, all on
/// one base configuration.
///
/// Cell order (and so result order) is kernels-major, then programs,
/// then schemes, then variants — matching the row order of the paper's
/// tables.
pub struct GridBuilder<'r> {
    runner: &'r Runner,
    scale: Scale,
    base: ExperimentConfig,
    kernels: Vec<Kernel>,
    programs: Vec<(Arc<str>, Arc<Program>)>,
    schemes: Vec<SchemeId>,
    variants: Vec<VariantFn>,
}

impl<'r> GridBuilder<'r> {
    /// Adds kernels (run at the builder's [`scale`](Self::scale)).
    #[must_use]
    pub fn kernels(mut self, kernels: impl IntoIterator<Item = Kernel>) -> Self {
        self.kernels.extend(kernels);
        self
    }

    /// Adds one kernel.
    #[must_use]
    pub fn kernel(self, kernel: Kernel) -> Self {
        self.kernels([kernel])
    }

    /// Adds a custom program (crossed with schemes and variants like a
    /// kernel); `name` is the cache identity.
    #[must_use]
    pub fn program(mut self, name: &str, program: impl Into<Arc<Program>>) -> Self {
        self.programs.push((Arc::from(name), program.into()));
        self
    }

    /// Sets the scale kernels are built at (default [`Scale::Test`]).
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the base configuration (default [`ExperimentConfig::paper`]).
    #[must_use]
    pub fn base(mut self, config: ExperimentConfig) -> Self {
        self.base = config;
        self
    }

    /// Adds schemes to cross with every kernel and variant (e.g.
    /// `registry::global().main_schemes()`). Without any, the base
    /// configuration's scheme runs alone.
    #[must_use]
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeId>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Adds one scheme.
    #[must_use]
    pub fn scheme(self, scheme: SchemeId) -> Self {
        self.schemes([scheme])
    }

    /// Sweeps a parameter: one variant per value, applied via `apply`.
    /// Multiple sweeps compose as a cross product in call order.
    #[must_use]
    pub fn sweep<V: 'static>(
        mut self,
        values: impl IntoIterator<Item = V>,
        apply: impl Fn(&mut ExperimentConfig, &V) + 'static,
    ) -> Self {
        let apply = Rc::new(apply);
        let news: Vec<VariantFn> = values
            .into_iter()
            .map(|v| {
                let apply = Rc::clone(&apply);
                Rc::new(move |cfg: &mut ExperimentConfig| apply(cfg, &v)) as VariantFn
            })
            .collect();
        if self.variants.is_empty() {
            self.variants = news;
        } else {
            self.variants = self
                .variants
                .iter()
                .flat_map(|old| {
                    news.iter().map(move |new| {
                        let (old, new) = (Rc::clone(old), Rc::clone(new));
                        Rc::new(move |cfg: &mut ExperimentConfig| {
                            old(cfg);
                            new(cfg);
                        }) as VariantFn
                    })
                })
                .collect();
        }
        self
    }

    /// Executes the cross product (memoized, parallel, deterministic).
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] in cell order if any program
    /// races under its schedule.
    pub fn run(self) -> Result<GridResult, TraceError> {
        let schemes = if self.schemes.is_empty() {
            vec![self.base.scheme]
        } else {
            self.schemes.clone()
        };
        let n_variants = self.variants.len().max(1);
        let mut grid = self.runner.cells();
        let mut sources: Vec<ProgramSource> = self
            .kernels
            .iter()
            .map(|&k| ProgramSource::Kernel(k, self.scale))
            .collect();
        sources.extend(
            self.programs
                .iter()
                .map(|(name, program)| ProgramSource::Custom {
                    name: Arc::clone(name),
                    program: Arc::clone(program),
                }),
        );
        for source in &sources {
            for &scheme in &schemes {
                for vi in 0..n_variants {
                    let mut config = self.base;
                    config.scheme = scheme;
                    if let Some(variant) = self.variants.get(vi) {
                        variant(&mut config);
                    }
                    grid.cells.push(RunSpec {
                        source: source.clone(),
                        config,
                    });
                }
            }
        }
        let outcome = grid.run()?;
        Ok(GridResult {
            outcome,
            sources,
            schemes,
            n_variants,
        })
    }
}

/// Results of a [`GridBuilder`] run, addressable by kernel, scheme, and
/// sweep position.
pub struct GridResult {
    outcome: GridOutcome,
    sources: Vec<ProgramSource>,
    schemes: Vec<SchemeId>,
    n_variants: usize,
}

impl GridResult {
    /// The result for `(kernel, scheme)` at sweep position `variant`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates were not part of the grid.
    #[must_use]
    pub fn at(&self, kernel: Kernel, scheme: SchemeId, variant: usize) -> &ExperimentResult {
        let si = self
            .schemes
            .iter()
            .position(|&s| s == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme:?} not in grid"));
        let ki = self
            .sources
            .iter()
            .position(|s| matches!(s, ProgramSource::Kernel(k, _) if *k == kernel))
            .unwrap_or_else(|| panic!("kernel {kernel:?} not in grid"));
        assert!(variant < self.n_variants, "variant {variant} out of range");
        &self.outcome.results[(ki * self.schemes.len() + si) * self.n_variants + variant]
    }

    /// The result for `(kernel, scheme)` (single-variant grids).
    #[must_use]
    pub fn get(&self, kernel: Kernel, scheme: SchemeId) -> &ExperimentResult {
        self.at(kernel, scheme, 0)
    }

    /// The result for a named custom program under `scheme` at sweep
    /// position `variant`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates were not part of the grid.
    #[must_use]
    pub fn at_program(&self, name: &str, scheme: SchemeId, variant: usize) -> &ExperimentResult {
        let si = self
            .schemes
            .iter()
            .position(|&s| s == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme:?} not in grid"));
        let ki = self
            .sources
            .iter()
            .position(|s| matches!(s, ProgramSource::Custom { name: n, .. } if **n == *name))
            .unwrap_or_else(|| panic!("program {name:?} not in grid"));
        assert!(variant < self.n_variants, "variant {variant} out of range");
        &self.outcome.results[(ki * self.schemes.len() + si) * self.n_variants + variant]
    }

    /// Number of sweep positions.
    #[must_use]
    pub fn variants(&self) -> usize {
        self.n_variants
    }

    /// Every result, in cell order.
    pub fn iter(&self) -> impl Iterator<Item = &ExperimentResult> {
        self.outcome.results.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel;
    use tpi_proto::{registry, SchemeId};

    #[test]
    fn memoized_equals_fresh() {
        let cfg = ExperimentConfig::paper();
        let fresh = run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let runner = Runner::serial();
        let a = runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let b = runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        for r in [&a, &b] {
            assert_eq!(r.sim.total_cycles, fresh.sim.total_cycles);
            assert_eq!(r.sim.agg, fresh.sim.agg);
            assert_eq!(r.trace, fresh.trace);
            assert_eq!(r.marking, fresh.marking);
        }
        let stats = runner.stats();
        assert_eq!(stats.programs_built, 1);
        assert_eq!(stats.traces_built, 1);
        assert_eq!(stats.trace_hits, 1);
    }

    #[test]
    fn schemes_share_one_trace() {
        let runner = Runner::new();
        let grid = runner
            .grid()
            .kernel(Kernel::Ocean)
            .scale(Scale::Test)
            .schemes(registry::global().main_schemes())
            .run()
            .unwrap();
        let stats = runner.stats();
        assert_eq!(stats.traces_built, 1);
        assert_eq!(stats.trace_hits, 3);
        assert_eq!(stats.cells_simulated, 4);
        // And every scheme really ran.
        for scheme in registry::global().main_schemes() {
            assert_eq!(grid.get(Kernel::Ocean, scheme).sim.scheme, scheme.label());
        }
    }

    #[test]
    fn registry_schemes_run_through_the_grid() {
        let runner = Runner::new();
        let grid = runner
            .grid()
            .kernel(Kernel::Ocean)
            .scale(Scale::Test)
            .schemes([SchemeId::TARDIS, SchemeId::HYBRID])
            .run()
            .unwrap();
        let tardis = grid.get(Kernel::Ocean, SchemeId::TARDIS);
        let hybrid = grid.get(Kernel::Ocean, SchemeId::HYBRID);
        assert_eq!(tardis.sim.scheme, "TARDIS");
        assert_eq!(hybrid.sim.scheme, "HYB");
        assert!(tardis.sim.total_cycles > 0 && hybrid.sim.total_cycles > 0);
        // Both rode the same cached trace as any other scheme would.
        assert_eq!(runner.stats().traces_built, 1);
    }

    #[test]
    fn changed_compiler_or_trace_option_invalidates_reuse() {
        let runner = Runner::serial();
        let base = ExperimentConfig::paper();
        runner.run_kernel(Kernel::Trfd, Scale::Test, &base).unwrap();

        // Scheme-only change: trace reused.
        let mut scheme_only = base;
        scheme_only.scheme = SchemeId::SC;
        runner
            .run_kernel(Kernel::Trfd, Scale::Test, &scheme_only)
            .unwrap();
        assert_eq!(runner.stats().traces_built, 1);

        // Compiler option change: new marking, new trace.
        let mut weaker = base;
        weaker.opt_level = tpi_compiler::OptLevel::Naive;
        runner
            .run_kernel(Kernel::Trfd, Scale::Test, &weaker)
            .unwrap();
        let stats = runner.stats();
        assert_eq!(stats.markings_built, 2);
        assert_eq!(stats.traces_built, 2);

        // Trace option change (seed feeds dynamic scheduling): new trace,
        // same marking.
        let mut reseeded = base;
        reseeded.seed ^= 1;
        runner
            .run_kernel(Kernel::Trfd, Scale::Test, &reseeded)
            .unwrap();
        let stats = runner.stats();
        assert_eq!(stats.markings_built, 2);
        assert_eq!(stats.traces_built, 3);
        // The program itself was only ever built once.
        assert_eq!(stats.programs_built, 1);
    }

    fn seeded(seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper();
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn a_trace_limit_drops_the_least_recently_used_trace() {
        let runner = Runner::serial().with_trace_limit(2);
        for seed in [1, 2, 3] {
            runner
                .run_kernel(Kernel::Flo52, Scale::Test, &seeded(seed))
                .unwrap();
        }
        assert_eq!(runner.stats().traces_built, 3);
        // Seeds 2 and 3 stay memoized; seed 1 was dropped.
        runner
            .run_kernel(Kernel::Flo52, Scale::Test, &seeded(2))
            .unwrap();
        assert_eq!(runner.stats().trace_hits, 1);
        let again = runner
            .run_kernel(Kernel::Flo52, Scale::Test, &seeded(1))
            .unwrap();
        // Seed 3 is now the least recently used, so it goes next.
        runner
            .run_kernel(Kernel::Flo52, Scale::Test, &seeded(3))
            .unwrap();
        let stats = runner.stats();
        assert_eq!((stats.traces_built, stats.trace_hits), (5, 1));
        // Programs and markings are not bounded.
        assert_eq!((stats.programs_built, stats.markings_built), (1, 1));
        let fresh = run_kernel(Kernel::Flo52, Scale::Test, &seeded(1)).unwrap();
        assert_eq!(again.sim.total_cycles, fresh.sim.total_cycles);
        assert_eq!(again.sim.agg, fresh.sim.agg);
        assert_eq!(again.trace, fresh.trace);
    }

    #[test]
    fn a_grid_wider_than_the_trace_limit_keeps_every_cells_trace() {
        // Two kernels' traces in one call under a limit of one: the trim at
        // the end of the call drops one of them, yet every cell keeps the
        // trace it was built with, and each kernel's schemes share one.
        let grid = |runner: &Runner| {
            runner
                .grid()
                .kernels([Kernel::Flo52, Kernel::Ocean])
                .scale(Scale::Test)
                .schemes(registry::global().main_schemes())
                .run()
                .unwrap()
        };
        let bounded = Runner::new().with_trace_limit(1);
        let got = grid(&bounded);
        let stats = bounded.stats();
        assert_eq!((stats.traces_built, stats.trace_hits), (2, 6));
        let want = grid(&Runner::new());
        for kernel in [Kernel::Flo52, Kernel::Ocean] {
            for scheme in registry::global().main_schemes() {
                let (g, w) = (got.get(kernel, scheme), want.get(kernel, scheme));
                assert_eq!(g.sim.total_cycles, w.sim.total_cycles);
                assert_eq!(g.sim.agg, w.sim.agg);
                assert_eq!(g.trace, w.trace);
            }
        }
    }

    #[test]
    fn cache_stats_regroup_the_counters() {
        let runner = Runner::serial();
        let cfg = ExperimentConfig::paper();
        runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let cache = runner.cache_stats();
        assert_eq!(cache, runner.stats().cache());
        assert_eq!(cache.programs, StageCache { hits: 1, misses: 1 });
        assert_eq!(cache.traces, StageCache { hits: 1, misses: 1 });
        assert!((cache.programs.hit_rate() - 0.5).abs() < 1e-12);
        let total = cache.total();
        assert_eq!(total.hits + total.misses, 8);
        // Display stays a one-line summary.
        assert!(cache.to_string().contains("programs 1/2 hits (50%)"));
        assert_eq!(StageCache::default().hit_rate(), 0.0);
    }

    #[test]
    fn run_kernel_safe_matches_the_plain_entry() {
        let runner = Runner::serial();
        let cfg = ExperimentConfig::paper();
        let plain = runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let safe = runner
            .run_kernel_safe(Kernel::Flo52, Scale::Test, &cfg)
            .expect("no panic")
            .expect("no trace error");
        assert_eq!(safe.sim.total_cycles, plain.sim.total_cycles);
        assert_eq!(safe.trace, plain.trace);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_cells_are_deduped() {
        let runner = Runner::new();
        let cfg = ExperimentConfig::paper();
        let mut grid = runner.cells();
        let a = grid.add(Kernel::Qcd2, Scale::Test, cfg);
        let b = grid.add(Kernel::Qcd2, Scale::Test, cfg);
        let out = grid.run().unwrap();
        assert_eq!(out[a].sim.total_cycles, out[b].sim.total_cycles);
        let stats = runner.stats();
        assert_eq!(stats.cells_simulated, 1);
        assert_eq!(stats.cells_deduped, 1);
    }

    #[test]
    fn profile_reports_pipeline_stages_and_counters() {
        let runner = Runner::serial();
        let cfg = ExperimentConfig::paper();
        runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let prof = runner.profile();
        for stage in [
            "prepare",
            "prepare/build",
            "prepare/mark",
            "prepare/interp",
            "simulate",
            "simulate/replay",
            "simulate/boundary",
        ] {
            assert!(
                prof.stage(stage).is_some(),
                "missing stage {stage}:\n{prof}"
            );
        }
        assert!(prof.counter("sim_events") > 0);
        assert_eq!(prof.counter("sim_epochs"), prof.counter("interp_epochs"));
        // One cell replays its trace once: every event it replays is one
        // the interpreter emitted.
        assert_eq!(prof.counter("sim_events"), prof.counter("interp_events"));
        // The trace's event storage: 16 bytes an event.
        assert_eq!(
            prof.counter("interp_event_bytes"),
            prof.counter("interp_events") * 16
        );
        // A memoized re-run opens the phase scopes again but interprets
        // nothing new, so the harvested per-trace sub-stages stay put.
        let calls_before = prof.stage("prepare/interp").unwrap().calls;
        runner.run_kernel(Kernel::Flo52, Scale::Test, &cfg).unwrap();
        let prof2 = runner.profile();
        assert_eq!(
            prof2.stage("prepare/interp").unwrap().calls,
            calls_before + 1,
            "the phase scope reopens on every grid"
        );
        assert_eq!(
            prof2.stage("prepare/interp/doall").unwrap().calls,
            prof.stage("prepare/interp/doall").unwrap().calls,
            "cache hit must not re-harvest interpreter time"
        );
    }

    #[test]
    fn replay_counters_repeat_and_order_insensitive_schemes_never_run_ahead() {
        let counters = |scheme: SchemeId| {
            let runner = Runner::serial();
            let cfg = ExperimentConfig {
                scheme,
                ..ExperimentConfig::paper()
            };
            runner.run_kernel(Kernel::Ocean, Scale::Test, &cfg).unwrap();
            let prof = runner.profile();
            ["sim_events", "sim_switches", "sim_run_ahead"].map(|c| prof.counter(c))
        };
        for scheme in registry::global().all().iter().map(|s| s.id()) {
            let [events, switches, ahead] = counters(scheme);
            assert_eq!(
                [events, switches, ahead],
                counters(scheme),
                "{scheme}: replay counters must repeat exactly"
            );
            assert!(ahead + switches <= events, "{scheme}");
            let engine =
                tpi_proto::build_engine(scheme, ExperimentConfig::paper().engine_config(64));
            if engine.order_insensitive() {
                assert_eq!([switches, ahead], [0, 0], "{scheme} never yields");
            } else {
                assert!(ahead > 0, "{scheme}: OCEAN's unshared lines run ahead");
            }
        }
    }

    #[test]
    fn sweeps_cross_product_in_call_order() {
        let runner = Runner::new();
        let grid = runner
            .grid()
            .kernel(Kernel::Flo52)
            .scale(Scale::Test)
            .scheme(SchemeId::TPI)
            .sweep([4u32, 8], |cfg, &w| cfg.line_words = w)
            .sweep([1u32, 2], |cfg, &a| cfg.assoc = a)
            .run()
            .unwrap();
        assert_eq!(grid.variants(), 4);
        // Variant order: (4,1), (4,2), (8,1), (8,2) — line sweep major.
        let cells: Vec<_> = grid.iter().collect();
        assert_eq!(cells.len(), 4);
        // All four share one trace (geometry affects layout => new trace
        // per line_words, so exactly two traces).
        assert_eq!(runner.stats().traces_built, 2);
    }
}
