//! The differential predicate: everything a generated kernel must
//! survive, and the sabotage hooks that prove the harness can catch a
//! broken engine.
//!
//! Each kernel runs through [`tpi::Runner::prepare`] at the Naive and
//! Full optimization levels, the static lint passes, the staleness
//! oracle in both HSCD semantics, and an end-to-end simulation under
//! every requested registry scheme with `verify_freshness` forced on.
//! Eight checks guard the result, each a [`ViolationClass`]:
//!
//! 1. **Generation** — the program must trace (no DOALL races, no
//!    interpreter failures). The generator promises this by
//!    construction.
//! 2. **Lint** — no `Error`-severity static diagnostic (the only one is
//!    `TPI002 doall-write-write-conflict`, which a race-free-by-
//!    construction kernel must never trip).
//! 3. **Oracle** — the compiler marking admits no stale observation
//!    under either HSCD replay semantics.
//! 4. **Freshness** — no simulated cache hit observes stale data (the
//!    engine panics, fenced by [`catch_cell_panic`]).
//! 5. **Accounting** — hits + misses = reads, per processor and in
//!    aggregate ([`verify_accounting`]).
//! 6. **Invariant** — the scheme's own structural invariants (the model
//!    checker's catalog: directory bookkeeping, timetag ranges, lease
//!    ordering) must hold on the post-run engine.
//! 7. **Agreement** — mark-ignoring schemes (whose
//!    [`tpi::proto::Scheme::uses_compiler_marks`] is false) must produce
//!    cycle-identical results at Naive and Full (only the marks differ
//!    between those traces), and every scheme must agree on the
//!    trace-determined read/write totals.
//! 8. **Replay** — [`run_trace`] and the min-clock reference
//!    [`run_trace_reference`] must produce identical results: every
//!    [`SimResult`] field but host time. This is what holds each engine's
//!    [`CoherenceEngine::order_insensitive`] claim to account, since that
//!    flag lets the heap replay run every stream straight through, and
//!    its [`CoherenceEngine::commutes`] rule, which lets the heap replay
//!    run a processor ahead.
//!
//! Violations become stable `TPI902 fuzz-violation` diagnostics.

use std::sync::Arc;

use crate::gen::{generate_kernel, GenKernel, GenOptions};
use crate::minimize::minimize;
use tpi::mem::WordAddr;
use tpi::proto::{build_engine, registry, CoherenceEngine, Sabotage, SchemeId};
use tpi::runner::{ProgramSource, RunSpec};
use tpi::sim::{run_trace, run_trace_reference, verify_accounting, SimResult};
use tpi::trace::SchedulePolicy;
use tpi::{catch_cell_panic, ExperimentConfig, Runner};
use tpi_analysis::diag::json_string;
use tpi_analysis::{lint_program, Code, Diagnostic, LintOptions, OracleMode, Severity};
use tpi_compiler::OptLevel;
use tpi_ir::Program;
use tpi_testkit::splitmix64;

/// What a fuzzing run sweeps.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master corpus seed.
    pub seed: u64,
    /// Kernels to generate and check.
    pub count: usize,
    /// Serial-nest depth budget per kernel.
    pub depth: usize,
    /// Schemes to simulate (default: the whole registry).
    pub schemes: Vec<SchemeId>,
    /// Shrink each violating kernel to a 1-minimal reproducer.
    pub minimize: bool,
    /// Optional engine sabotage, to prove the harness catches real bugs.
    pub sabotage: Option<Sabotage>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            count: 50,
            depth: 3,
            schemes: registry::global().all().iter().map(|s| s.id()).collect(),
            minimize: true,
            sabotage: None,
        }
    }
}

/// Which differential check a kernel failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationClass {
    /// The program failed to trace (DOALL race or interpreter error).
    Generation,
    /// An `Error`-severity static lint fired.
    Lint,
    /// The staleness oracle saw a read the marking lets go stale.
    Oracle,
    /// A simulated cache hit observed stale data.
    Freshness,
    /// The miss-accounting identity failed.
    Accounting,
    /// A scheme-specific structural invariant (directory bookkeeping,
    /// timetag ranges, lease ordering) failed on the post-run engine.
    Invariant,
    /// Scheme results disagree where the registry says they must not.
    Agreement,
    /// The default replay and the min-clock reference replay disagree.
    Replay,
}

impl ViolationClass {
    /// Stable lower-case label used in diagnostics and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ViolationClass::Generation => "generation",
            ViolationClass::Lint => "lint",
            ViolationClass::Oracle => "oracle",
            ViolationClass::Freshness => "freshness",
            ViolationClass::Accounting => "accounting",
            ViolationClass::Invariant => "invariant",
            ViolationClass::Agreement => "agreement",
            ViolationClass::Replay => "replay",
        }
    }
}

/// Delegating engine wrapper that re-applies a [`Sabotage`] hook at
/// construction and at every epoch boundary, so the damage survives the
/// engine's own recovery (resets, invalidation, line replacement).
#[derive(Debug, Clone)]
struct SabotagedEngine {
    inner: Box<dyn CoherenceEngine>,
    hook: Sabotage,
}

impl SabotagedEngine {
    fn new(mut inner: Box<dyn CoherenceEngine>, hook: Sabotage) -> Self {
        hook.apply(inner.as_mut());
        SabotagedEngine { inner, hook }
    }
}

impl CoherenceEngine for SabotagedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn read(
        &mut self,
        proc: tpi::mem::ProcId,
        addr: WordAddr,
        kind: tpi::mem::ReadKind,
        version: u64,
        now: tpi::mem::Cycle,
    ) -> tpi::proto::AccessOutcome {
        self.inner.read(proc, addr, kind, version, now)
    }
    fn write(
        &mut self,
        proc: tpi::mem::ProcId,
        addr: WordAddr,
        version: u64,
        now: tpi::mem::Cycle,
    ) -> tpi::mem::Cycle {
        self.inner.write(proc, addr, version, now)
    }
    fn write_critical(
        &mut self,
        proc: tpi::mem::ProcId,
        addr: WordAddr,
        version: u64,
        now: tpi::mem::Cycle,
    ) -> tpi::mem::Cycle {
        self.inner.write_critical(proc, addr, version, now)
    }
    fn epoch_boundary(&mut self, per_proc_now: &[tpi::mem::Cycle]) -> Vec<tpi::mem::Cycle> {
        let stalls = self.inner.epoch_boundary(per_proc_now);
        self.hook.apply(self.inner.as_mut());
        stalls
    }
    fn network(&self) -> &tpi::net::Network {
        self.inner.network()
    }
    fn network_mut(&mut self) -> &mut tpi::net::Network {
        self.inner.network_mut()
    }
    fn stats(&self) -> &tpi::proto::EngineStats {
        self.inner.stats()
    }
    fn write_buffer_stats(&self) -> Option<tpi::cache::WriteBufferStats> {
        self.inner.write_buffer_stats()
    }
    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        self.inner.op_counts()
    }
    fn order_insensitive(&self) -> bool {
        self.inner.order_insensitive()
    }
    fn commutes(
        &self,
        proc: tpi::mem::ProcId,
        addr: WordAddr,
        write: bool,
        refs: &tpi::proto::EpochRefs,
    ) -> bool {
        self.inner.commutes(proc, addr, write, refs)
    }
}

/// One confirmed violation, with enough context to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzViolation {
    /// Kernel name (`fuzz-<seed>-<index>`).
    pub kernel: String,
    /// Corpus index.
    pub index: usize,
    /// Which check failed.
    pub class: ViolationClass,
    /// The scheme involved, when the check is per-scheme.
    pub scheme: Option<SchemeId>,
    /// The optimization level involved, when the check is per-level.
    pub level: Option<OptLevel>,
    /// Human detail (panic message, accounting delta, …).
    pub detail: String,
    /// Canonical source of the violating kernel.
    pub source: String,
    /// 1-minimal source still exhibiting the violation, if shrinking ran.
    pub minimized: Option<String>,
}

impl FuzzViolation {
    /// The stable `TPI902 fuzz-violation` diagnostic for this finding.
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        let mut d = Diagnostic::new(Code::Tpi902, Severity::Error, self.detail.clone())
            .with("kernel", &self.kernel)
            .with("class", self.class.label());
        if let Some(s) = self.scheme {
            d = d.with("scheme", s.as_str());
        }
        if let Some(l) = self.level {
            d = d.with("level", format!("{l:?}"));
        }
        d
    }
}

/// The outcome of a whole fuzzing sweep.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The options that produced it.
    pub options: FuzzOptions,
    /// Kernels generated and checked.
    pub checked: usize,
    /// Parallel (DOALL) epochs across all checked traces (Full level).
    pub parallel_epochs: u64,
    /// Simulations executed (kernel × level × scheme cells).
    pub sims: u64,
    /// Every confirmed violation.
    pub violations: Vec<FuzzViolation>,
}

impl FuzzReport {
    /// True when no kernel violated anything.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// All findings as `TPI902` diagnostics.
    #[must_use]
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.violations
            .iter()
            .map(FuzzViolation::diagnostic)
            .collect()
    }

    /// Machine-readable rendering (schema `tpi-fuzz/1`). Byte-stable for
    /// a given seed and options — the determinism tests compare these.
    #[must_use]
    pub fn json(&self) -> String {
        let schemes: Vec<String> = self
            .options
            .schemes
            .iter()
            .map(|s| json_string(s.as_str()))
            .collect();
        let mut out = format!(
            "{{\"schema\":\"tpi-fuzz/1\",\"seed\":{},\"count\":{},\"depth\":{},\
             \"schemes\":[{}],\"sabotage\":{},\"checked\":{},\"parallel_epochs\":{},\
             \"sims\":{},\"violations\":[",
            self.options.seed,
            self.options.count,
            self.options.depth,
            schemes.join(","),
            self.options
                .sabotage
                .map_or_else(|| "null".to_string(), |s| json_string(s.label())),
            self.checked,
            self.parallel_epochs,
            self.sims,
        );
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"diagnostic\":{},\"source\":{},\"minimized\":{}}}",
                v.diagnostic().json(),
                json_string(&v.source),
                v.minimized
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_string),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The small-machine configuration every generated kernel is checked
/// under: 4 processors, a deliberately tiny direct-mapped cache (so
/// replacement and tag-wrap paths are exercised), and a per-kernel
/// schedule policy and seed.
#[must_use]
pub fn fuzz_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.procs = 4;
    cfg.cache_bytes = 256;
    cfg.line_words = 4;
    cfg.assoc = 1;
    cfg.tag_bits = 4;
    cfg.reset_cycles = 8;
    cfg.tardis_lease = 4;
    cfg.hybrid_threshold = 2;
    cfg.verify_freshness = true;
    cfg.seed = seed;
    cfg.policy = match seed % 3 {
        0 => SchedulePolicy::StaticBlock,
        1 => SchedulePolicy::StaticCyclic,
        _ => SchedulePolicy::Dynamic { chunk: 2 },
    };
    cfg
}

/// A raw finding before it is joined with kernel identity.
struct RawViolation {
    class: ViolationClass,
    scheme: Option<SchemeId>,
    level: Option<OptLevel>,
    detail: String,
}

/// Result fingerprint used by the agreement checks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    total_cycles: u64,
    traffic_words: u64,
    reads: u64,
    read_hits: u64,
    miss_by_class: [u64; 8],
    writes: u64,
}

impl Fingerprint {
    fn of(sim: &SimResult) -> Self {
        Fingerprint {
            total_cycles: sim.total_cycles,
            traffic_words: sim.traffic.total_words(),
            reads: sim.agg.reads,
            read_hits: sim.agg.read_hits,
            miss_by_class: sim.agg.miss_by_class,
            writes: sim.agg.writes,
        }
    }
}

fn scheme_row(id: SchemeId) -> &'static tpi::proto::Scheme {
    registry::global()
        .get(id)
        .expect("scheme came from the registry")
}

/// The first field in which two replays of one trace differ (host time
/// excepted).
fn first_difference(a: &SimResult, b: &SimResult) -> Option<&'static str> {
    [
        ("scheme", a.scheme == b.scheme),
        ("total_cycles", a.total_cycles == b.total_cycles),
        ("busy_cycles", a.busy_cycles == b.busy_cycles),
        ("agg", a.agg == b.agg),
        ("per_proc", a.per_proc == b.per_proc),
        ("traffic", a.traffic == b.traffic),
        ("wbuffer", a.wbuffer == b.wbuffer),
        ("epochs", a.epochs == b.epochs),
        ("lock_acquires", a.lock_acquires == b.lock_acquires),
        ("lock_wait_cycles", a.lock_wait_cycles == b.lock_wait_cycles),
        ("profile", a.profile == b.profile),
        ("miss_by_array", a.miss_by_array == b.miss_by_array),
        ("host.events", a.host.events == b.host.events),
        ("host.ops", a.host.ops == b.host.ops),
    ]
    .into_iter()
    .find(|&(_, same)| !same)
    .map(|(field, _)| field)
}

/// Replays `trace` by the min-clock reference on an engine from `build`,
/// and describes the first way `sim` (the default replay) departs from
/// it.
fn replay_mismatch(
    trace: &tpi::trace::Trace,
    build: &dyn Fn() -> Box<dyn CoherenceEngine>,
    opts: &tpi::sim::SimOptions,
    sim: &SimResult,
) -> Option<String> {
    let reference = match catch_cell_panic(|| run_trace_reference(trace, build().as_mut(), opts)) {
        Ok(r) => r,
        Err(panic) => return Some(format!("reference replay panicked: {panic}")),
    };
    first_difference(sim, &reference).map(|field| {
        format!(
            "run_trace differs from the reference replay in {field} \
             (total cycles {} vs {})",
            sim.total_cycles, reference.total_cycles
        )
    })
}

/// Runs the whole differential predicate over one program.
///
/// Returns the findings plus (parallel epochs, simulations executed).
fn check_program(
    runner: &Runner,
    name: &str,
    program: &Arc<Program>,
    cfg_seed: u64,
    schemes: &[SchemeId],
    sabotage: Option<Sabotage>,
) -> (Vec<RawViolation>, u64, u64) {
    let mut out = Vec::new();

    // 2. Static lints: the only Error-severity pass is TPI002, which a
    // race-free-by-construction kernel must never trip.
    for d in lint_program(program, &LintOptions::default()) {
        if d.severity == Severity::Error {
            out.push(RawViolation {
                class: ViolationClass::Lint,
                scheme: None,
                level: None,
                detail: d.human(),
            });
        }
    }

    // 1. Trace generation at both optimization levels.
    let base = fuzz_config(cfg_seed);
    let levels = [OptLevel::Naive, OptLevel::Full];
    let specs: Vec<RunSpec> = levels
        .iter()
        .map(|&level| {
            let mut config = base;
            config.opt_level = level;
            RunSpec {
                source: ProgramSource::Custom {
                    name: Arc::from(name),
                    program: Arc::clone(program),
                },
                config,
            }
        })
        .collect();
    let cells = match runner.prepare(&specs) {
        Ok(cells) => cells,
        Err(e) => {
            out.push(RawViolation {
                class: ViolationClass::Generation,
                scheme: None,
                level: None,
                detail: e.to_string(),
            });
            return (out, 0, 0);
        }
    };

    // 3. Staleness oracle, both HSCD semantics, both levels.
    for cell in &cells {
        for mode in [OracleMode::Tpi, OracleMode::Sc] {
            let report = tpi_analysis::check_trace(cell.trace.as_ref(), mode);
            if !report.is_sound() {
                out.push(RawViolation {
                    class: ViolationClass::Oracle,
                    scheme: None,
                    level: Some(cell.spec.config.opt_level),
                    detail: format!(
                        "{} stale read(s); first: {}",
                        report.violations.len(),
                        report.violations[0].diagnostic().human()
                    ),
                });
            }
        }
    }

    // 4 + 5. Simulate each scheme at each level with freshness verified.
    let mut sims = 0u64;
    let mut results: Vec<(SchemeId, OptLevel, Fingerprint)> = Vec::new();
    for cell in &cells {
        let cfg = cell.spec.config;
        let trace = cell.trace.as_ref();
        let engine_cfg = cfg.engine_config(trace.layout.total_words());
        let sim_opts = cfg.sim_options();
        for &scheme in schemes {
            sims += 1;
            let build = || -> Box<dyn CoherenceEngine> {
                let built = build_engine(scheme, engine_cfg.clone());
                match sabotage {
                    Some(hook) if hook.target() == scheme => {
                        Box::new(SabotagedEngine::new(built, hook))
                    }
                    _ => built,
                }
            };
            let outcome = catch_cell_panic(|| {
                let mut engine = build();
                let sim = run_trace(trace, engine.as_mut(), &sim_opts);
                (sim, engine)
            });
            match outcome {
                Err(panic) => out.push(RawViolation {
                    class: ViolationClass::Freshness,
                    scheme: Some(scheme),
                    level: Some(cfg.opt_level),
                    detail: panic,
                }),
                Ok((sim, engine)) => {
                    if let Err(delta) = verify_accounting(&sim) {
                        out.push(RawViolation {
                            class: ViolationClass::Accounting,
                            scheme: Some(scheme),
                            level: Some(cfg.opt_level),
                            detail: delta,
                        });
                    }
                    // Structural invariants on the post-run engine: the
                    // same catalog the model checker applies per step.
                    for inv in scheme_row(scheme).model_invariants() {
                        if let Err(broken) = (inv.check)(engine.as_ref()) {
                            out.push(RawViolation {
                                class: ViolationClass::Invariant,
                                scheme: Some(scheme),
                                level: Some(cfg.opt_level),
                                detail: format!("{}: {broken}", inv.name),
                            });
                        }
                    }
                    // 8. The default replay must reproduce the reference
                    // order exactly.
                    if let Some(detail) = replay_mismatch(trace, &build, &sim_opts, &sim) {
                        out.push(RawViolation {
                            class: ViolationClass::Replay,
                            scheme: Some(scheme),
                            level: Some(cfg.opt_level),
                            detail,
                        });
                    }
                    results.push((scheme, cfg.opt_level, Fingerprint::of(&sim)));
                }
            }
        }
    }

    // 6a. Mark-ignoring schemes must be level-invariant: the Naive and
    // Full traces differ only in the compiler marks.
    for &scheme in schemes {
        if scheme_row(scheme).uses_compiler_marks() {
            continue;
        }
        let per_level: Vec<&Fingerprint> = levels
            .iter()
            .filter_map(|&l| {
                results
                    .iter()
                    .find(|(s, rl, _)| *s == scheme && *rl == l)
                    .map(|(_, _, f)| f)
            })
            .collect();
        if per_level.len() == 2 && per_level[0] != per_level[1] {
            out.push(RawViolation {
                class: ViolationClass::Agreement,
                scheme: Some(scheme),
                level: None,
                detail: format!(
                    "mark-ignoring scheme differs across levels: naive={:?} full={:?}",
                    per_level[0], per_level[1]
                ),
            });
        }
    }

    // 6b. Every scheme replays the same trace: the trace-determined
    // read/write totals must agree across the board, per level.
    for &level in &levels {
        let at_level: Vec<&(SchemeId, OptLevel, Fingerprint)> =
            results.iter().filter(|(_, l, _)| *l == level).collect();
        if let Some(first) = at_level.first() {
            for r in &at_level[1..] {
                if (r.2.reads, r.2.writes) != (first.2.reads, first.2.writes) {
                    out.push(RawViolation {
                        class: ViolationClass::Agreement,
                        scheme: Some(r.0),
                        level: Some(level),
                        detail: format!(
                            "access totals disagree with {}: ({}, {}) vs ({}, {})",
                            first.0.as_str(),
                            r.2.reads,
                            r.2.writes,
                            first.2.reads,
                            first.2.writes
                        ),
                    });
                }
            }
        }
    }

    let epochs = cells
        .iter()
        .find(|c| c.spec.config.opt_level == OptLevel::Full)
        .map_or(0, |c| c.trace.stats.parallel_epochs);
    (out, epochs, sims)
}

/// Generates `opts.count` kernels and runs every one through the full
/// differential predicate, optionally shrinking violators to 1-minimal
/// reproducers.
#[must_use]
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let runner = Runner::new();
    let gen = GenOptions {
        seed: opts.seed,
        depth: opts.depth,
    };
    let mut report = FuzzReport {
        options: opts.clone(),
        checked: 0,
        parallel_epochs: 0,
        sims: 0,
        violations: Vec::new(),
    };
    for index in 0..opts.count {
        let kernel = generate_kernel(&gen, index);
        let cfg_seed = splitmix64(opts.seed ^ (index as u64).wrapping_add(17));
        let (raw, epochs, sims) = check_program(
            &runner,
            &kernel.name,
            &kernel.program,
            cfg_seed,
            &opts.schemes,
            opts.sabotage,
        );
        report.checked += 1;
        report.parallel_epochs += epochs;
        report.sims += sims;
        for r in raw {
            let minimized = if opts.minimize {
                Some(minimize_violation(
                    &kernel, cfg_seed, opts, r.class, r.scheme,
                ))
            } else {
                None
            };
            report.violations.push(FuzzViolation {
                kernel: kernel.name.clone(),
                index,
                class: r.class,
                scheme: r.scheme,
                level: r.level,
                detail: r.detail,
                source: kernel.source.clone(),
                minimized,
            });
        }
    }
    report
}

/// Runs one already-parsed kernel through the full differential
/// predicate on healthy engines and returns every violation found.
///
/// This is the corpus regression entry point: committed reproducers
/// were minted against *sabotaged* engines, so re-checking them here
/// must come back clean — a non-empty result means a real engine,
/// compiler, or oracle defect crept in.
#[must_use]
pub fn check_kernel(
    name: &str,
    program: &Arc<Program>,
    cfg_seed: u64,
    schemes: &[SchemeId],
) -> Vec<FuzzViolation> {
    let runner = Runner::serial().without_memoization();
    let (raw, _, _) = check_program(&runner, name, program, cfg_seed, schemes, None);
    raw.into_iter()
        .map(|r| FuzzViolation {
            kernel: name.to_string(),
            index: 0,
            class: r.class,
            scheme: r.scheme,
            level: r.level,
            detail: r.detail,
            source: tpi_ir::program_to_source(program),
            minimized: None,
        })
        .collect()
}

/// True when `program` still exhibits a violation of `class` (for
/// `scheme`, when given) under the fuzz predicate — and, unless `class`
/// is [`ViolationClass::Lint`] itself, no lint violation, so shrinking
/// never trades a dynamic violation for a statically racy program. This
/// is the minimizer's acceptance test.
///
/// The whole check is fenced: a shrink candidate that panics the
/// pipeline (e.g. a subscript simplification that walked out of an
/// array) simply does not qualify, instead of killing the run.
#[must_use]
pub fn violates(
    program: &Arc<Program>,
    cfg_seed: u64,
    schemes: &[SchemeId],
    sabotage: Option<Sabotage>,
    class: ViolationClass,
    scheme: Option<SchemeId>,
) -> bool {
    let program = Arc::clone(program);
    let schemes = schemes.to_vec();
    catch_cell_panic(move || {
        let runner = Runner::serial().without_memoization();
        let (raw, _, _) =
            check_program(&runner, "candidate", &program, cfg_seed, &schemes, sabotage);
        // The target violation must persist — and (unless the target IS a
        // lint violation) the shrink must not leave the statically-clean
        // envelope, or committed reproducers would trip the conservative
        // lints on healthy engines too.
        raw.iter().any(|r| r.class == class && r.scheme == scheme)
            && (class == ViolationClass::Lint
                || raw.iter().all(|r| r.class != ViolationClass::Lint))
    })
    .unwrap_or(false)
}

fn minimize_violation(
    kernel: &GenKernel,
    cfg_seed: u64,
    opts: &FuzzOptions,
    class: ViolationClass,
    scheme: Option<SchemeId>,
) -> String {
    let schemes: Vec<SchemeId> = match scheme {
        Some(s) => vec![s],
        None => opts.schemes.clone(),
    };
    let min = minimize(&kernel.program, |candidate| {
        violates(candidate, cfg_seed, &schemes, opts.sabotage, class, scheme)
    });
    tpi_ir::program_to_source(&min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi::proto::EngineConfig;

    #[test]
    fn sabotaged_engines_report_the_inner_order_insensitivity_unless_the_hook_lies() {
        let wrap = |scheme: SchemeId, hook: Sabotage| {
            let inner = build_engine(scheme, EngineConfig::paper_default(64));
            SabotagedEngine::new(inner, hook).order_insensitive()
        };
        assert!(wrap(SchemeId::TPI, Sabotage::TpiSkipResets));
        assert!(wrap(SchemeId::BASE, Sabotage::BaseCacheShared));
        assert!(!wrap(SchemeId::HYBRID, Sabotage::HybridDropSharer));
        assert!(!wrap(SchemeId::FULL_MAP, Sabotage::FullmapDropSharer));
        assert!(wrap(
            SchemeId::FULL_MAP,
            Sabotage::FullmapClaimsOrderInsensitive
        ));
    }

    #[test]
    fn invariants_reach_the_engine_a_sabotage_wraps() {
        // A hook that is a no-op on the directory leaves a healthy engine
        // inside the wrapper, so every HW invariant must pass on it. Without
        // `as_any` forwarding each one fails its downcast instead, and the
        // fuzzer would count that as a caught `class=invariant`.
        let inner = build_engine(SchemeId::FULL_MAP, EngineConfig::paper_default(64));
        let wrapped = SabotagedEngine::new(inner, Sabotage::TpiSkipResets);
        let invariants = scheme_row(SchemeId::FULL_MAP).model_invariants();
        assert!(!invariants.is_empty());
        for inv in invariants {
            (inv.check)(&wrapped).unwrap_or_else(|e| panic!("{}: {e}", inv.name));
        }
    }
}
