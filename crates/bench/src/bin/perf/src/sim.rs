//! The simulator workloads: `pipeline`, `large` and `repro`.
//!
//! `pipeline` and `large` run a fixed list of cells. Each cell runs on a
//! fresh runner pinned to one thread and one shard (the cold run: build,
//! mark, interpret, replay), then once more on the same runner (the hot
//! run: program, marking and trace come from the runner's memo store, so
//! only the engine replays). A `repro` run makes one pass: every paper
//! experiment on one memoizing runner, then the `pipeline` cells re-run on
//! that warm runner as its hot cells. Every unit of work is timed by the
//! host gauge ([`crate::gauge`]).

use crate::gauge::Gauge;
use crate::metrics::{Metrics, Outcome, OP_COUNTERS};
use crate::span::{self_ms_of, Tracer};
use crate::stats::{hash64, mean, median, ms, peak_rss_mb, permutation, quantile, rng};
use crate::{layers, Opts};
use std::time::Instant;
use tpi::{ExperimentConfig, ExperimentResult, ProfileReport, Runner};
use tpi_compiler::mark_program;
use tpi_proto::{build_engine, SchemeId};
use tpi_sim::{run_trace, verify_accounting, SimResult};
use tpi_trace::{generate_trace, Trace};
use tpi_workloads::{Kernel, Scale};

/// One simulated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub kernel: Kernel,
    pub scale: Scale,
    pub config: ExperimentConfig,
}

impl Cell {
    pub fn new(kernel: Kernel, scale: Scale, scheme: SchemeId, procs: u32, seed: u64) -> Cell {
        let config = ExperimentConfig::builder()
            .scheme(scheme)
            .procs(procs)
            .seed(seed)
            .build()
            .expect("benchmark cells are valid machines");
        Cell {
            kernel,
            scale,
            config,
        }
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/p{}",
            self.kernel.name(),
            self.config.scheme.label(),
            self.config.procs
        )
    }
}

/// The 20 paper-scale cells of one `tpi-run` configuration sweep: two
/// kernels, five schemes, two machine sizes.
pub fn pipeline_cells(scale: Scale, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kernel in [Kernel::Ocean, Kernel::Flo52] {
        for scheme in [
            SchemeId::SC,
            SchemeId::TPI,
            SchemeId::FULL_MAP,
            SchemeId::TARDIS,
            SchemeId::HYBRID,
        ] {
            for procs in [8, 16] {
                cells.push(Cell::new(kernel, scale, scheme, procs, seed));
            }
        }
    }
    cells
}

/// OCEAN on the large-machine geometry, TPI against the full-map
/// directory at 64 and 256 processors.
pub fn large_cells(scale: Scale, seed: u64) -> Vec<Cell> {
    let scale = if scale == Scale::Test {
        Scale::Test
    } else {
        Scale::Large
    };
    let mut cells = Vec::new();
    for procs in [64, 256] {
        for scheme in [SchemeId::TPI, SchemeId::FULL_MAP] {
            cells.push(Cell::new(Kernel::Ocean, scale, scheme, procs, seed));
        }
    }
    cells
}

/// A runner whose parallelism is set here, not by `TPI_THREADS` or
/// `TPI_SIM_SHARDS`.
pub fn pinned_runner(threads: usize) -> Runner {
    Runner::with_threads(threads).with_sim_shards(1)
}

/// The digest of every simulated output of a cell (host timings
/// excluded): equal digests mean the same simulated machine behaviour.
pub fn digest(r: &ExperimentResult) -> u64 {
    let s = &r.sim;
    hash64(
        format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            s.scheme,
            s.total_cycles,
            s.busy_cycles,
            s.agg,
            s.per_proc,
            s.traffic,
            s.wbuffer,
            s.epochs,
            s.lock_acquires,
            s.lock_wait_cycles,
            s.profile,
            s.miss_by_array,
            s.host.ops,
            r.marking,
            r.trace,
            s.host.events,
        )
        .as_bytes(),
    )
}

/// Runs `min_reps` whole reps, then more while the next one is expected
/// to finish inside the budget.
pub fn for_budget(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let started = Instant::now();
    let mut reps = 0;
    loop {
        rep(reps);
        reps += 1;
        let spent = started.elapsed().as_secs_f64();
        if reps >= min_reps && spent + spent / reps as f64 > seconds {
            return;
        }
    }
}

/// Minimum reps per run. One `pipeline` rep takes 4–5 s and one `large`
/// rep 8–10 s. `large` needs three: the 256-processor cells sometimes run
/// a fifth slower than the gauge says for one rep, and only a median of
/// three sheds that.
pub const PIPELINE_REPS: usize = 3;
pub const LARGE_REPS: usize = 3;

/// One set-up of a simulator workload: a fresh runner pinned to one thread
/// runs one small paper cell (page faults, allocator growth, lazy
/// statics). The first one is the warm-up before any measurement.
pub fn set_up(scale: Scale, seed: u64) {
    let warm = Cell::new(Kernel::Ocean, scale, SchemeId::TPI, 8, seed);
    let _ = pinned_runner(1)
        .run_kernel(warm.kernel, warm.scale, &warm.config)
        .expect("the warm-up cell is race-free");
}

/// Set-ups per run.
const SETUPS: usize = 5;

/// Set-ups spread evenly over a run, between units of measured work, each
/// timed by the gauge; `setup_s` is their median.
pub struct SetUps {
    scale: Scale,
    seed: u64,
    every: f64,
    start: Instant,
    times: Vec<f64>,
}

impl SetUps {
    pub fn new(opts: &Opts) -> SetUps {
        SetUps {
            scale: opts.scale,
            seed: opts.seed,
            every: opts.seconds / SETUPS as f64,
            start: Instant::now(),
            times: Vec::new(),
        }
    }

    fn take(&mut self, gauge: &mut Gauge) {
        let (ms, ()) = gauge.time(|| set_up(self.scale, self.seed));
        self.times.push(ms / 1e3);
    }

    /// Takes a set-up if one is due.
    pub fn tick(&mut self, gauge: &mut Gauge) {
        if self.start.elapsed().as_secs_f64() >= self.every * self.times.len() as f64 {
            self.take(gauge);
        }
    }

    /// The median set-up time in seconds, after topping up to `SETUPS`
    /// set-ups.
    pub fn median(mut self, gauge: &mut Gauge) -> f64 {
        while self.times.len() < SETUPS {
            self.take(gauge);
        }
        quantile(&self.times, 0.5)
    }
}

/// Deterministic counters of one pass: they must repeat exactly across
/// runs and between the Runner path and the direct-layer path.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    pub sim_events: u64,
    pub interp_epochs: u64,
    /// Engine operation counts, in `OP_COUNTERS` order.
    pub ops: [u64; OP_COUNTERS.len()],
}

impl Counters {
    fn from_profile(p: &ProfileReport) -> Counters {
        Counters {
            sim_events: p.counter("sim_events"),
            interp_epochs: p.counter("interp_epochs"),
            ops: OP_COUNTERS.map(|op| p.counter(op)),
        }
    }

    fn add(&mut self, other: &Counters) {
        self.sim_events += other.sim_events;
        self.interp_epochs += other.interp_epochs;
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            *a += b;
        }
    }

    fn add_sim(&mut self, sim: &SimResult) {
        self.sim_events += sim.host.events;
        for (name, n) in &sim.host.ops {
            if let Some(i) = OP_COUNTERS.iter().position(|op| op == name) {
                self.ops[i] += n;
            }
        }
    }

    pub fn to_metrics(&self, m: &mut Metrics) {
        m.set("sim.events", self.sim_events as f64);
        m.set("trace.epochs", self.interp_epochs as f64);
        for (op, n) in OP_COUNTERS.iter().zip(self.ops) {
            m.set(format!("proto.{op}"), n as f64);
        }
    }
}

/// What the Runner path measured over one pass.
#[derive(Debug, Default)]
pub struct RunnerPass {
    /// Cold and hot time per cell (CPU ms at the gauge's reference speed),
    /// in cell-list order.
    pub cold_ms: Vec<f64>,
    pub hot_ms: Vec<f64>,
    /// `(cold digest, hot digest)` per cell, in cell-list order.
    pub digests: Vec<(u64, u64)>,
    pub counters: Counters,
    pub core: CoreTally,
}

/// Sums of what the `Runner`'s public outputs say about the `core` layer.
#[derive(Debug, Default, Clone)]
pub struct CoreTally {
    pub wall_ms: f64,
    pub threads: usize,
    pub harvested_ms: f64,
    pub trace_hits: u64,
    pub trace_lookups: u64,
    pub marking_hits: u64,
    pub marking_lookups: u64,
}

impl CoreTally {
    fn add_runner(&mut self, runner: &Runner, wall_ms: f64) {
        let cache = runner.cache_stats();
        let p = runner.profile();
        let stage = |path: &str| p.stage(path).map_or(0.0, |s| s.nanos as f64 / 1e6);
        self.wall_ms += wall_ms;
        self.threads = runner.threads();
        self.harvested_ms += stage("prepare/build")
            + stage("prepare/mark")
            + stage("prepare/interp/serial")
            + stage("prepare/interp/doall")
            + stage("simulate/replay")
            + stage("simulate/boundary");
        self.trace_hits += cache.traces.hits;
        self.trace_lookups += cache.traces.hits + cache.traces.misses;
        self.marking_hits += cache.markings.hits;
        self.marking_lookups += cache.markings.hits + cache.markings.misses;
    }

    pub fn to_metrics(&self, m: &mut Metrics) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let threads = self.threads.max(1) as f64;
        m.set(
            "core.trace_hit_ratio",
            ratio(self.trace_hits, self.trace_lookups),
        );
        m.set(
            "core.marking_hit_ratio",
            ratio(self.marking_hits, self.marking_lookups),
        );
        m.set(
            "core.orchestration_ms",
            self.wall_ms - self.harvested_ms / threads,
        );
        m.set(
            "core.worker_busy_ratio",
            if self.wall_ms > 0.0 {
                self.harvested_ms / (self.wall_ms * threads)
            } else {
                0.0
            },
        );
    }
}

/// One rep of `cells` through the Runner path, in `order`, each run timed
/// by `gauge`; `between` runs before each cell, outside its timing.
pub fn runner_pass(
    cells: &[Cell],
    order: &[usize],
    gauge: &mut Gauge,
    between: &mut dyn FnMut(&mut Gauge),
) -> RunnerPass {
    let mut pass = RunnerPass {
        cold_ms: vec![0.0; cells.len()],
        hot_ms: vec![0.0; cells.len()],
        digests: vec![(0, 0); cells.len()],
        ..RunnerPass::default()
    };
    for &i in order {
        between(gauge);
        let cell = &cells[i];
        let runner = pinned_runner(1);
        let run = || {
            let started = Instant::now();
            let result = runner
                .run_kernel(cell.kernel, cell.scale, &cell.config)
                .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
            (ms(started.elapsed()), result)
        };
        let (cold_ms, (cold_wall_ms, cold)) = gauge.time(run);
        let (hot_ms, (hot_wall_ms, hot)) = gauge.time(run);
        pass.cold_ms[i] = cold_ms;
        pass.hot_ms[i] = hot_ms;
        pass.digests[i] = (digest(&cold), digest(&hot));
        pass.counters
            .add(&Counters::from_profile(&runner.profile()));
        pass.core.add_runner(&runner, cold_wall_ms + hot_wall_ms);
    }
    pass
}

/// Each cell's median over reps of the time `of` picks from a pass.
pub fn per_cell_medians<P>(n: usize, passes: &[P], of: impl Fn(&P) -> &[f64]) -> Vec<f64> {
    (0..n)
        .map(|i| median(&passes.iter().map(|p| of(p)[i]).collect::<Vec<_>>()))
        .collect()
}

/// The end-to-end metrics of the cell-list workloads. Each cell's cold
/// (and hot) time is its median over the reps; quantiles and rates are
/// taken over those per-cell medians.
pub fn run_cells(opts: &Opts, cells: &[Cell], min_reps: usize) -> Outcome {
    let mut setups = SetUps::new(opts);
    let mut gauge = Gauge::new();
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    for_budget(opts.seconds, min_reps, |rep| {
        let order = permutation(&mut rng(opts.seed, rep as u64), cells.len());
        passes.push(runner_pass(cells, &order, &mut gauge, &mut |g| {
            setups.tick(g);
        }));
    });
    let setup_s = setups.median(&mut gauge);
    check_digests(&mut out, cells, &passes);
    let cold = per_cell_medians(cells.len(), &passes, |p: &RunnerPass| &p.cold_ms);
    let hot = per_cell_medians(cells.len(), &passes, |p: &RunnerPass| &p.hot_ms);
    out.attempted = (2 * cells.len() * passes.len()) as u64;
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("cells_per_s", 1e3 / mean(&cold));
    m.set("cell_ms_p50", quantile(&cold, 0.5));
    m.set("cell_ms_p90", quantile(&cold, 0.9));
    m.set("hot_ms_p50", quantile(&hot, 0.5));
    m.set("hot_ms_p90", quantile(&hot, 0.9));
    m.set("hot_rps", 1e3 / mean(&hot));
    eprintln!("[{} reps x {} cells]", passes.len(), cells.len());
    out
}

/// Every cell must simulate identically across reps, and its hot run
/// identically to its cold run.
fn check_digests(out: &mut Outcome, cells: &[Cell], passes: &[RunnerPass]) {
    for (i, cell) in cells.iter().enumerate() {
        let first = passes[0].digests[i].0;
        for (rep, p) in passes.iter().enumerate() {
            let (cold, hot) = p.digests[i];
            out.check(cold == first && hot == first, || {
                format!(
                    "{}: rep {rep} simulated differently ({cold:x}/{hot:x} vs {first:x})",
                    cell.label()
                )
            });
        }
    }
}

/// One cell through the layers directly, each call inside a span: the
/// traced twin of `Runner::run_kernel`. Returns the cold result, the hot
/// result (a fresh engine replaying the same trace) and the trace.
pub fn direct_cell(
    t: &Tracer,
    id: u64,
    cell: &Cell,
) -> (ExperimentResult, ExperimentResult, Trace) {
    let cfg = &cell.config;
    t.span("perf", "cell", id, || {
        let program = t.span("workloads", "Kernel::build", id, || {
            cell.kernel.build(cell.scale)
        });
        let marking = t.span("compiler", "mark_program", id, || {
            mark_program(&program, &cfg.compiler_options())
        });
        let trace = t
            .span("trace", "generate_trace", id, || {
                generate_trace(&program, &marking, &cfg.trace_options())
            })
            .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
        let replay = || {
            let mut engine = t.span("proto", "build_engine", id, || {
                build_engine(cfg.scheme, cfg.engine_config(trace.layout.total_words()))
            });
            let sim = t.span("sim", "run_trace", id, || {
                run_trace(&trace, engine.as_mut(), &cfg.sim_options())
            });
            verify_accounting(&sim).expect("engine accounting identity");
            ExperimentResult {
                sim,
                marking: marking.summary(),
                trace: trace.stats,
            }
        };
        let cold = replay();
        let hot = replay();
        (cold, hot, trace)
    })
}

/// What the direct-layer path measured over one pass.
pub struct DirectPass {
    pub digests: Vec<(u64, u64)>,
    pub counters: Counters,
    pub replay_ms: f64,
    pub boundary_ms: f64,
    pub wall_ms: f64,
}

pub fn direct_pass(t: &Tracer, cells: &[Cell], order: &[usize]) -> DirectPass {
    let started = Instant::now();
    let mut pass = DirectPass {
        digests: vec![(0, 0); cells.len()],
        counters: Counters::default(),
        replay_ms: 0.0,
        boundary_ms: 0.0,
        wall_ms: 0.0,
    };
    for &i in order {
        let (cold, hot, trace) = direct_cell(t, i as u64, &cells[i]);
        pass.digests[i] = (digest(&cold), digest(&hot));
        pass.counters.interp_epochs += trace.stats.epochs;
        for r in [&cold, &hot] {
            pass.counters.add_sim(&r.sim);
            pass.replay_ms += r.sim.host.replay_nanos as f64 / 1e6;
            pass.boundary_ms += r.sim.host.boundary_nanos as f64 / 1e6;
        }
    }
    pass.wall_ms = ms(started.elapsed());
    pass
}

/// One rep of `cells` through the Runner, then the same rep through the
/// layers directly, untraced and traced: the checks between the paths and
/// the layer totals. Also returns the direct passes' wall times, in ms,
/// untraced and traced.
pub fn cell_layers(t: &Tracer, cells: &[Cell], order: &[usize]) -> (Outcome, f64, f64) {
    let plain = runner_pass(cells, order, &mut Gauge::new(), &mut |_| ());
    let untraced = direct_pass(&Tracer::off(), cells, order);
    let traced = direct_pass(t, cells, order);
    let mut out = Outcome {
        attempted: 4 * cells.len() as u64,
        ..Outcome::default()
    };
    for (i, cell) in cells.iter().enumerate() {
        out.check(plain.digests[i] == traced.digests[i], || {
            format!(
                "{}: Runner path and direct-layer path disagree",
                cell.label()
            )
        });
        out.check(traced.digests[i].0 == traced.digests[i].1, || {
            format!("{}: hot replay differs from cold replay", cell.label())
        });
    }
    for other in [&plain.counters, &untraced.counters] {
        out.check(*other == traced.counters, || {
            format!(
                "counters differ: untraced {other:?} traced {:?}",
                traced.counters
            )
        });
    }
    let spans = t.spans();
    let m = &mut out.metrics;
    m.set("workloads.build_ms", self_ms_of(&spans, "Kernel::build"));
    m.set("compiler.mark_ms", self_ms_of(&spans, "mark_program"));
    m.set("trace.interp_ms", self_ms_of(&spans, "generate_trace"));
    m.set("sim.replay_ms", traced.replay_ms);
    m.set("sim.boundary_ms", traced.boundary_ms);
    traced.counters.to_metrics(m);
    plain.core.to_metrics(m);
    (out, untraced.wall_ms, traced.wall_ms)
}

/// The traced run of the cell-list workloads: the passes of
/// [`cell_layers`], then the per-operation layer probe on `probe`.
pub fn trace_cells(opts: &Opts, t: &Tracer, cells: &[Cell], probe: &layers::ProbeSpec) -> Outcome {
    set_up(opts.scale, opts.seed);
    let order = permutation(&mut rng(opts.seed, 0), cells.len());
    let (mut out, untraced_ms, traced_ms) = cell_layers(t, cells, &order);
    out.metrics.set(
        "trace_overhead_pct",
        100.0 * (traced_ms / untraced_ms - 1.0),
    );
    out.metrics.extend(layers::sim_probe(t, probe));
    out
}

/// Splits `repro` output into its `=== eN — … ===` blocks.
pub fn golden_blocks(text: &str) -> Vec<(String, String)> {
    let mut blocks: Vec<(String, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("=== ") {
            let id = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_owned();
            blocks.push((id, String::new()));
        }
        if let Some((_, body)) = blocks.last_mut() {
            body.push_str(line);
        }
    }
    blocks
}

/// The committed paper-scale `repro all` output.
pub const GOLDEN: &str = include_str!("../../../../../../results/repro_paper.txt");

/// Checks one experiment's rendered block against the golden blocks.
pub fn check_block(golden: &[(String, String)], id: &str, rendered: &str) -> Result<(), String> {
    match golden.iter().find(|(g, _)| g == id) {
        Some((_, want)) if want == rendered => Ok(()),
        Some((_, want)) => {
            let line = want
                .lines()
                .zip(rendered.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want.lines().count().min(rendered.lines().count()));
            Err(format!(
                "{id}: output differs from the golden block at line {}",
                line + 1
            ))
        }
        None => Err(format!("{id}: no golden block")),
    }
}

/// One experiment of a `repro` pass.
struct Experiment {
    id: &'static str,
    /// CPU ms at the gauge's reference speed, summed over the threads.
    ms: f64,
    cells: u64,
    output: String,
}

/// One `repro all` pass: every experiment in a seeded order on one
/// memoizing runner, then the pipeline cells re-run hot on it.
struct ReproPass {
    /// In run order.
    experiments: Vec<Experiment>,
    /// Per hot rep, each hot cell's CPU ms at the reference speed, in
    /// cell-list order.
    hot_ms: Vec<Vec<f64>>,
    hot_misses: u64,
    /// Wall time of the experiments.
    wall_ms: f64,
    counters: Counters,
    core: CoreTally,
    profile: ProfileReport,
}

/// Hot re-runs of each pipeline cell after the experiments.
const REPRO_HOT_REPS: u64 = 3;

/// `between` runs before each experiment, outside its timing.
fn repro_pass(
    opts: &Opts,
    t: Option<&Tracer>,
    gauge: &mut Gauge,
    between: &mut dyn FnMut(&mut Gauge),
) -> ReproPass {
    let runner = pinned_runner(crate::stats::host_cores());
    let order = permutation(&mut rng(opts.seed, 0), tpi_bench::ALL_IDS.len());
    let mut experiments = Vec::new();
    let mut wall_ms = 0.0;
    for (k, &i) in order.iter().enumerate() {
        between(gauge);
        let id = tpi_bench::ALL_IDS[i];
        let before = runner.cache_stats().cells;
        let run = || tpi_bench::run_experiment(id, opts.scale, &runner).expect("known id");
        let started = Instant::now();
        let (took, output) = gauge.time(|| match t {
            Some(t) => t.span("bench", "run_experiment", k as u64, run),
            None => run(),
        });
        wall_ms += ms(started.elapsed());
        let after = runner.cache_stats().cells;
        experiments.push(Experiment {
            id,
            ms: took,
            cells: after.hits + after.misses - before.hits - before.misses,
            output: output.to_string(),
        });
    }
    // Hot cells: the pipeline cells at the paper machine's own seed, so
    // their traces are already in the memo store.
    let hot_cells = pipeline_cells(opts.scale, ExperimentConfig::paper().seed);
    let misses_before = runner.cache_stats().traces.misses;
    let mut hot_ms = Vec::new();
    let mut hot_wall_ms = 0.0;
    for rep in 0..REPRO_HOT_REPS {
        let mut times = vec![0.0; hot_cells.len()];
        for &i in &permutation(&mut rng(opts.seed, 1 + rep), hot_cells.len()) {
            let c = &hot_cells[i];
            let run = || {
                runner
                    .run_kernel(c.kernel, c.scale, &c.config)
                    .expect("race-free")
            };
            let started = Instant::now();
            let (took, _) = gauge.time(|| match t {
                Some(t) => t.span("core", "Runner::run_kernel", (1 << 20) + i as u64, run),
                None => run(),
            });
            hot_wall_ms += ms(started.elapsed());
            times[i] = took;
        }
        hot_ms.push(times);
    }
    let hot_misses = runner.cache_stats().traces.misses - misses_before;
    let mut core = CoreTally::default();
    core.add_runner(&runner, wall_ms + hot_wall_ms);
    ReproPass {
        experiments,
        hot_ms,
        hot_misses,
        wall_ms,
        counters: Counters::from_profile(&runner.profile()),
        core,
        profile: runner.profile(),
    }
}

/// The reference the `repro` blocks must match: the committed golden file
/// at paper scale; at test scale, a fresh serial unmemoized run.
fn repro_reference(scale: Scale) -> Vec<(String, String)> {
    if scale == Scale::Paper {
        return golden_blocks(GOLDEN);
    }
    let fresh = Runner::with_threads(1)
        .with_sim_shards(1)
        .without_memoization();
    tpi_bench::ALL_IDS
        .iter()
        .map(|id| {
            let out = tpi_bench::run_experiment(id, scale, &fresh).expect("known id");
            ((*id).to_owned(), out.to_string())
        })
        .collect()
}

fn check_repro(out: &mut Outcome, reference: &[(String, String)], pass: &ReproPass) {
    for e in &pass.experiments {
        if let Err(failure) = check_block(reference, e.id, &e.output) {
            out.check_failures.push(failure);
        }
    }
    out.check(pass.hot_misses == 0, || {
        format!("{} hot cells missed the memoized trace", pass.hot_misses)
    });
}

pub fn run_repro(opts: &Opts) -> Outcome {
    let reference = repro_reference(opts.scale);
    let mut setups = SetUps::new(opts);
    let mut gauge = Gauge::new();
    let pass = repro_pass(opts, None, &mut gauge, &mut |g| setups.tick(g));
    let setup_s = setups.median(&mut gauge);
    let mut out = Outcome::default();
    check_repro(&mut out, &reference, &pass);
    let cells: u64 = pass.experiments.iter().map(|e| e.cells).sum();
    let total_ms: f64 = pass.experiments.iter().map(|e| e.ms).sum();
    let hot = per_cell_medians(pass.hot_ms[0].len(), &pass.hot_ms, Vec::as_slice);
    out.attempted = cells + (hot.len() * pass.hot_ms.len()) as u64;
    let per_cell: Vec<f64> = pass
        .experiments
        .iter()
        .filter(|e| e.cells > 0)
        .map(|e| e.ms / e.cells as f64)
        .collect();
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("cells_per_s", cells as f64 * 1e3 / total_ms);
    m.set("cell_ms_p50", quantile(&per_cell, 0.5));
    m.set("cell_ms_p90", quantile(&per_cell, 0.9));
    m.set("hot_ms_p50", quantile(&hot, 0.5));
    m.set("hot_ms_p90", quantile(&hot, 0.9));
    m.set("hot_rps", 1e3 / mean(&hot));
    eprintln!(
        "[{cells} cells in {:.1} s wall on {} thread(s)]",
        pass.wall_ms / 1e3,
        pass.core.threads
    );
    out
}

pub fn trace_repro(opts: &Opts, t: &Tracer, probe: &layers::ProbeSpec) -> Outcome {
    let reference = repro_reference(opts.scale);
    set_up(opts.scale, opts.seed);
    let mut gauge = Gauge::new();
    let plain = repro_pass(opts, None, &mut gauge, &mut |_| ());
    let traced = repro_pass(opts, Some(t), &mut gauge, &mut |_| ());
    let mut out = Outcome::default();
    check_repro(&mut out, &reference, &plain);
    check_repro(&mut out, &reference, &traced);
    out.check(plain.counters == traced.counters, || {
        format!(
            "counters differ: untraced {:?} traced {:?}",
            plain.counters, traced.counters
        )
    });
    out.attempted = traced.experiments.iter().map(|e| e.cells).sum::<u64>()
        + traced.hot_ms.iter().map(Vec::len).sum::<usize>() as u64;
    let stage = |path: &str| {
        traced
            .profile
            .stage(path)
            .map_or(0.0, |s| s.nanos as f64 / 1e6)
    };
    let m = &mut out.metrics;
    m.set("workloads.build_ms", stage("prepare/build"));
    m.set("compiler.mark_ms", stage("prepare/mark"));
    m.set(
        "trace.interp_ms",
        stage("prepare/interp/serial") + stage("prepare/interp/doall"),
    );
    m.set("sim.replay_ms", stage("simulate/replay"));
    m.set("sim.boundary_ms", stage("simulate/boundary"));
    traced.counters.to_metrics(m);
    traced.core.to_metrics(m);
    m.set(
        "trace_overhead_pct",
        100.0 * (traced.wall_ms / plain.wall_ms - 1.0),
    );
    m.extend(layers::sim_probe(t, probe));
    out
}
