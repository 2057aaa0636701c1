//! `tpi-model`: exhaustive interleaving-level model checking of the
//! coherence engines.
//!
//! The rest of this crate checks the *compiler's* side of the soundness
//! contract (the marking admits no stale read). This module checks the
//! *hardware's* side: for tiny bounded configurations (2–3 processors,
//! 1–4 shared words, 2–4 epochs) it drives the real [`tpi::proto`]
//! engines — every scheme in the registry — through **every**
//! interleaving of per-processor access sequences, and after every
//! single step verifies
//!
//! * **freshness** — the engines' own `verify_freshness` assertion
//!   (a read served a version other than the one the ground-truth log
//!   requires panics; the panic is caught and reported),
//! * **accounting** — every read is a hit or a classified miss
//!   ([`tpi::EngineStepper::check_accounting`]), and
//! * **scheme invariants** — whatever structural properties the scheme
//!   supplies through [`Scheme::model_invariants`] (directory entries
//!   cover cached lines, timetag ages respect the phase discipline,
//!   Tardis leases are justified, …).
//!
//! # Exploration
//!
//! The search is *stateful*: a node holds an [`EngineStepper`] (a deep
//! copy of the engine and its ground truth), the epoch and each
//! processor's position, and each enabled step is applied once, to a copy
//! of its parent's node. Two reductions keep the bounded state space
//! small:
//!
//! * **visited-state hashing** — a node is identified by the engine
//!   fingerprint plus the program position and the sleep set; revisits
//!   are pruned (hash compaction: only a 64-bit collision is unsound);
//! * **sleep sets** — after exploring transition `t` at a node, `t` is
//!   kept asleep in the subtrees of its *independent* siblings, killing
//!   the commuted half of each diamond. Two accesses are independent
//!   when they come from different processors **and** map to different
//!   cache sets: same-set accesses interact through eviction and
//!   line-grained directory state even when the words differ, and
//!   same-processor accesses share a cache and a clock. Epoch
//!   boundaries are global (barrier) and dependent with everything.
//!
//! The sleep set is folded into the visited key, which keeps the
//! classic unsound interaction between sleep sets and state caching
//! (a state first reached with a larger sleep set must be re-explored
//! when reached with a smaller one) from arising at all: equal key ⇒
//! identical residual search problem.
//!
//! # Run-ahead rules
//!
//! The heap replay of `tpi-sim` lets a processor issue an access ahead of
//! processors with smaller clocks when the engine declares that it
//! commutes with the rest of its epoch
//! ([`CoherenceEngine::commutes`](tpi::proto::CoherenceEngine::commutes)).
//! At every explored state the checker holds each engine to that claim:
//! for every enabled access `a` the engine declares commuting (the table
//! built from the program's current epoch) and every enabled access `b`
//! of another processor, `a` then `b` and `b` then `a` must give equal
//! outcomes and equal fingerprints, and `a` must still commute after `b`.
//! A broken claim is reported as the invariant `run-ahead-commutes`, its
//! trace the state's prefix followed by `a` and `b`. The check steps the
//! state's two children once more each (`b` after `a`, `a` after `b`) but
//! visits no new state, so state counts are unchanged.
//!
//! An engine that claims
//! [`CoherenceEngine::order_insensitive`](tpi::proto::CoherenceEngine::order_insensitive)
//! declares every access commuting in an epoch without critical accesses,
//! and the checker holds it to that claim the same way. The simulator's
//! heap replays only sync-free epochs, and critical accesses occur only in
//! lock epochs, which take the min-clock scan; so those are the epochs
//! whose interleavings the claim must not change.
//!
//! Counterexamples are shrunk to a 1-minimal interleaving by greedy
//! delta debugging (drop any single step while the same invariant still
//! fires, to fixpoint; a run-ahead counterexample keeps its barriers) and
//! reported as [`Code::Tpi901`] diagnostics. The shrinker's candidates are
//! arbitrary traces, so it alone replays each from a fresh engine.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

use tpi::cache::CacheConfig;
use tpi::proto::registry::{self, Scheme};
use tpi::proto::{AccessOutcome, EngineConfig, EpochRefs, ModelInvariant, Sabotage, SchemeId};
use tpi::{catch_cell_panic, EngineStepper};
use tpi_mem::{LineGeometry, ProcId, WordAddr};
use tpi_testkit::exhaustive;

use crate::diag::{Code, Diagnostic, Severity};

/// What one model-program access does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// Epoch-ordered read; the stepper derives the sound marking
    /// (plain or Time-Read) from its ground-truth write log.
    Read,
    /// Epoch-ordered write (bumps the ground-truth version).
    Write,
    /// Lock-ordered read (exempt from the epoch freshness machinery).
    ReadCritical,
    /// Lock-ordered write.
    WriteCritical,
}

/// One access of a model program: an [`OpKind`] applied to a logical
/// word index (the program's [`Layout`] maps indices to addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Access {
    /// Logical word index, `0..Program::words`.
    pub word: u32,
    /// What to do to it.
    pub op: OpKind,
}

/// How logical word indices map to machine addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layout {
    /// All words in one cache line (stresses false sharing and
    /// line-grained directory state).
    Packed,
    /// One word per cache line, each line in its own set (stresses
    /// cross-line independence and the sleep-set reduction).
    Spread,
    /// One word per cache line, every line in the same set, so each
    /// fill evicts the last (stresses victims and LRU state).
    Conflict,
}

/// A bounded multi-epoch access program: `epochs[e][p]` is the ordered
/// access sequence processor `p` issues in epoch `e`. Every epoch ends
/// in a barrier (the explorer inserts it once all processors have
/// drained the epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Short name used in reports and counterexamples.
    pub name: String,
    /// Number of processors.
    pub procs: u32,
    /// Number of logical shared words.
    pub words: u32,
    /// Word-index-to-address mapping.
    pub layout: Layout,
    /// `epochs[e][p]` = accesses of processor `p` in epoch `e`.
    pub epochs: Vec<Vec<Vec<Access>>>,
}

impl Program {
    /// The machine address of logical word `word` under this program's
    /// layout (words per line taken from [`model_config`]'s geometry).
    #[must_use]
    pub fn addr(&self, word: u32) -> WordAddr {
        match self.layout {
            Layout::Packed => WordAddr(u64::from(word)),
            Layout::Spread => WordAddr(u64::from(word) * u64::from(MODEL_LINE_WORDS)),
            Layout::Conflict => {
                WordAddr(u64::from(word) * u64::from(MODEL_LINE_WORDS) * u64::from(MODEL_SETS))
            }
        }
    }

    /// Whether the program is data-race-free at epoch granularity: in
    /// every epoch, a word written (non-critically) by one processor is
    /// touched (non-critically) by no other. The checker requires this —
    /// the freshness contract only covers DRF-per-epoch programs, and a
    /// racy program would report engine "violations" that are really
    /// program bugs. Critical accesses are exempt (lock-ordered).
    #[must_use]
    pub fn is_drf(&self) -> bool {
        for epoch in &self.epochs {
            for w in 0..self.words {
                let mut writer: Option<usize> = None;
                let mut racy = false;
                for (p, seq) in epoch.iter().enumerate() {
                    if seq.iter().any(|a| a.word == w && a.op == OpKind::Write) {
                        if writer.is_some_and(|q| q != p) {
                            racy = true;
                        }
                        writer = Some(p);
                    }
                }
                if racy {
                    return false;
                }
                if let Some(wp) = writer {
                    for (p, seq) in epoch.iter().enumerate() {
                        let touches = seq
                            .iter()
                            .any(|a| a.word == w && matches!(a.op, OpKind::Read | OpKind::Write));
                        if p != wp && touches {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// One transition of the explored schedule. `Op` carries the access it
/// performed so a shrunk trace replays identically even after other
/// steps were deleted around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// Processor `proc` performs `access`.
    Op {
        /// Issuing processor.
        proc: u32,
        /// The access performed.
        access: Access,
    },
    /// All processors cross the epoch barrier.
    Boundary,
}

impl Step {
    /// The issuing processor and the access of an `Op`; `None` for the
    /// barrier.
    fn op(self) -> Option<(u32, Access)> {
        match self {
            Step::Op { proc, access } => Some((proc, access)),
            Step::Boundary => None,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Boundary => f.write_str("barrier"),
            Step::Op { proc, access } => {
                let verb = match access.op {
                    OpKind::Read => "reads",
                    OpKind::Write => "writes",
                    OpKind::ReadCritical => "reads[crit]",
                    OpKind::WriteCritical => "writes[crit]",
                };
                write!(f, "p{proc} {verb} w{}", access.word)
            }
        }
    }
}

/// Renders a schedule as a single deterministic line.
#[must_use]
pub fn trace_string(trace: &[Step]) -> String {
    let parts: Vec<String> = trace.iter().map(Step::to_string).collect();
    parts.join("; ")
}

/// Bounds and hooks for one model-checking run.
#[derive(Debug, Clone, Copy)]
pub struct ModelOptions {
    /// Processors per configuration (2–4).
    pub procs: u32,
    /// Logical shared words (1–4; 4 is one full line packed).
    pub words: u32,
    /// Maximum accesses per processor per enumerated epoch.
    pub depth: usize,
    /// Epochs per enumerated program (the last is always the observer
    /// epoch in which every processor reads every word).
    pub epochs: usize,
    /// Distinct-state budget per (scheme, program); exploration reports
    /// `truncated` when it is hit.
    pub max_states: u64,
    /// Test hook: a [`Sabotage`] applied to the engine after every step
    /// (a no-op on engines it does not target), so the seeded-violation
    /// tests can prove the checker catches each invariant. `None` in
    /// normal runs.
    pub sabotage: Option<Sabotage>,
}

impl Default for ModelOptions {
    fn default() -> Self {
        ModelOptions {
            procs: 2,
            words: 2,
            depth: 1,
            epochs: 2,
            max_states: 1_000_000,
            sabotage: None,
        }
    }
}

/// Words per line of the model cache (also the spread-layout stride).
pub const MODEL_LINE_WORDS: u32 = 4;

/// Sets of the model cache (the conflict layout's stride in lines).
pub const MODEL_SETS: u32 = 8;

/// The invariant a broken run-ahead claim violates (see the module docs).
pub const RUN_AHEAD_COMMUTES: &str = "run-ahead-commutes";

/// The tiny machine every model program runs on: 128-byte direct-mapped
/// caches (8 lines of 4 words — small enough that evictions happen
/// within a 4-word program), 2-bit timetags (phase resets fire within
/// 4 epochs), lease 2, hybrid threshold 2, and `verify_freshness` on so
/// the engines' own assertions become checkable events.
#[must_use]
pub fn model_config(procs: u32) -> EngineConfig {
    let mut cfg = EngineConfig::paper_default(1024);
    cfg.procs = procs;
    cfg.net = tpi::net::NetworkConfig::paper_default(procs);
    cfg.cache = CacheConfig {
        size_bytes: 128,
        assoc: 1,
        geometry: LineGeometry::new(MODEL_LINE_WORDS),
    };
    cfg.tag_bits = 2;
    cfg.reset_cycles = 8;
    cfg.tardis_lease = 2;
    cfg.hybrid_threshold = 2;
    cfg.verify_freshness = true;
    cfg
}

/// One interleaving that breaks an invariant, shrunk to 1-minimality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelViolation {
    /// The scheme whose engine broke.
    pub scheme: SchemeId,
    /// The program under which it broke.
    pub program: String,
    /// Stable name of the violated invariant (`freshness`,
    /// `accounting`, or a scheme-prefixed name like
    /// `tpi-phase-discipline`).
    pub invariant: String,
    /// The checker's explanation of the broken state.
    pub message: String,
    /// The minimal schedule: removing any single step makes the
    /// violation disappear.
    pub trace: Vec<Step>,
}

impl ModelViolation {
    /// The violation as a structured [`Code::Tpi901`] diagnostic.
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        Diagnostic::new(
            Code::Tpi901,
            Severity::Error,
            format!(
                "scheme {} breaks invariant {} after {} step(s)",
                self.scheme.as_str(),
                self.invariant,
                self.trace.len()
            ),
        )
        .with("scheme", self.scheme.as_str())
        .with("program", &self.program)
        .with("invariant", &self.invariant)
        .with("trace", trace_string(&self.trace))
        .with("detail", &self.message)
    }
}

/// Exploration results for one scheme across every program.
#[derive(Debug, Clone)]
pub struct SchemeReport {
    /// The scheme checked.
    pub scheme: SchemeId,
    /// Programs explored (the sweep stops early at the first violation,
    /// so this may be less than the program count).
    pub programs: usize,
    /// Distinct states visited, summed over programs.
    pub states: u64,
    /// Complete interleavings reached (after reduction), summed.
    pub schedules: u64,
    /// Run-ahead claims checked: ordered pairs of enabled accesses of two
    /// processors whose first the engine declared commuting, summed over
    /// explored states.
    pub claims: u64,
    /// Whether any program hit the `max_states` budget.
    pub truncated: bool,
    /// Violations found (at most one: the sweep stops at the first).
    pub violations: Vec<ModelViolation>,
}

/// Results of one [`check_schemes`] run.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// Per-scheme results, in argument order.
    pub schemes: Vec<SchemeReport>,
    /// Programs in the checked suite (scenarios + enumerated).
    pub programs: usize,
    /// Enumerated programs dropped as processor-permutation symmetric
    /// duplicates.
    pub dropped: usize,
    /// The options the run used.
    pub options: ModelOptions,
}

impl ModelReport {
    /// All violations across schemes.
    #[must_use]
    pub fn violations(&self) -> Vec<&ModelViolation> {
        self.schemes
            .iter()
            .flat_map(|s| s.violations.iter())
            .collect()
    }

    /// Total distinct states across schemes.
    #[must_use]
    pub fn total_states(&self) -> u64 {
        self.schemes.iter().map(|s| s.states).sum()
    }

    /// Whether every scheme passed every program untruncated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.schemes
            .iter()
            .all(|s| s.violations.is_empty() && !s.truncated)
    }
}

/// Hand-written scenario programs covering the hazards the enumerated
/// suite cannot reach at small depth: critical sections, false sharing,
/// timetag wrap-around (which needs `2^tag_bits + 2` epochs), and the
/// copies, victims and set-mates a run-ahead claim must not disturb.
#[must_use]
pub fn scenario_programs(procs: u32, words: u32) -> Vec<Program> {
    let p = procs as usize;
    let w = words.max(1);
    let read = |word| Access {
        word,
        op: OpKind::Read,
    };
    let write = |word| Access {
        word,
        op: OpKind::Write,
    };
    let mut out = Vec::new();

    // Producer/consumer: p0 writes every word, everyone else reads them
    // next epoch — the paper's core staleness hazard.
    let produce: Vec<Vec<Access>> = (0..p)
        .map(|q| {
            if q == 0 {
                (0..w).map(write).collect()
            } else {
                Vec::new()
            }
        })
        .collect();
    let consume: Vec<Vec<Access>> = (0..p)
        .map(|q| {
            if q == 0 {
                Vec::new()
            } else {
                (0..w).map(read).collect()
            }
        })
        .collect();
    out.push(Program {
        name: "producer-consumer".into(),
        procs,
        words: w,
        layout: Layout::Spread,
        epochs: vec![produce, consume],
    });

    // Ping-pong: ownership of w0 migrates every epoch (each owner reads
    // the previous owner's value, then overwrites it).
    let ping: Vec<Vec<Vec<Access>>> = (0..4)
        .map(|e| {
            (0..p)
                .map(|q| {
                    if q == e % p {
                        vec![read(0), write(0)]
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        })
        .collect();
    out.push(Program {
        name: "ping-pong".into(),
        procs,
        words: w,
        layout: Layout::Spread,
        epochs: ping,
    });

    // Multi-reader: one write, then two epochs of everyone re-reading
    // (the second read of each epoch exercises the verified-hit path).
    let fan: Vec<Vec<Access>> = (0..p).map(|_| vec![read(0), read(0)]).collect();
    out.push(Program {
        name: "multi-reader".into(),
        procs,
        words: w,
        layout: Layout::Spread,
        epochs: vec![produce_one(p), fan.clone(), fan],
    });

    if w >= 2 {
        // False sharing: two processors write different words of one
        // line in the same epoch (word-DRF, line-racy), then read each
        // other's word.
        let collide: Vec<Vec<Access>> = (0..p)
            .map(|q| match q {
                0 => vec![write(0)],
                1 => vec![write(1)],
                _ => Vec::new(),
            })
            .collect();
        let cross: Vec<Vec<Access>> = (0..p)
            .map(|q| match q {
                0 => vec![read(1)],
                1 => vec![read(0)],
                _ => Vec::new(),
            })
            .collect();
        out.push(Program {
            name: "false-sharing".into(),
            procs,
            words: w,
            layout: Layout::Packed,
            epochs: vec![collide, cross],
        });
    }

    // Critical section: every processor updates w0 under the lock in
    // one epoch (any interleaving must stay coherent), everyone reads
    // the result next epoch.
    let crit: Vec<Vec<Access>> = (0..p)
        .map(|_| {
            vec![
                Access {
                    word: 0,
                    op: OpKind::ReadCritical,
                },
                Access {
                    word: 0,
                    op: OpKind::WriteCritical,
                },
            ]
        })
        .collect();
    let observe: Vec<Vec<Access>> = (0..p).map(|_| vec![read(0)]).collect();
    out.push(Program {
        name: "critical-update".into(),
        procs,
        words: w,
        layout: Layout::Spread,
        epochs: vec![crit, observe],
    });

    // Reset stress: w0 is written in epoch 1 (timetag 1, cleared by the
    // TwoPhase reset at the wrap crossing) and then left untouched past
    // a full timetag wrap; the engine must invalidate it at the phase
    // reset and miss on the late read rather than trust a recycled tag.
    let modulus = 1u64 << model_config(procs).tag_bits;
    let filler: Vec<Vec<Access>> = (0..p)
        .map(|q| {
            if q == 0 && w >= 2 {
                vec![write(w - 1)]
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut reset: Vec<Vec<Vec<Access>>> = vec![filler.clone(), produce_one(p)];
    for _ in 0..modulus {
        reset.push(filler.clone());
    }
    let late_read: Vec<Vec<Access>> = (0..p)
        .map(|q| {
            if q == 1 % p {
                vec![read(0)]
            } else {
                Vec::new()
            }
        })
        .collect();
    reset.push(late_read);
    out.push(Program {
        name: "reset-stress".into(),
        procs,
        words: w,
        layout: Layout::Spread,
        epochs: reset,
    });

    if w >= 2 && p >= 2 {
        // Run-ahead hazards: w0's and w1's lines share a set. In the
        // holder program p1 keeps w0's line from the first epoch (a
        // directory owner, an update-protocol sharer) and evicts it by
        // filling w1's while p0 writes w0; in the victim program p0
        // evicts its own copy of w0's line that way while p1 writes w0.
        let two = |e0: Vec<Access>, e1: Vec<Access>| -> Vec<Vec<Access>> {
            (0..p)
                .map(|q| match q {
                    0 => e0.clone(),
                    1 => e1.clone(),
                    _ => Vec::new(),
                })
                .collect()
        };
        out.push(Program {
            name: "run-ahead-holder".into(),
            procs,
            words: w,
            layout: Layout::Conflict,
            epochs: vec![
                two(vec![], vec![write(0)]),
                two(vec![write(0)], vec![read(1)]),
            ],
        });
        out.push(Program {
            name: "run-ahead-victim".into(),
            procs,
            words: w,
            layout: Layout::Conflict,
            epochs: vec![
                two(vec![read(0)], vec![]),
                two(vec![read(1)], vec![write(0)]),
            ],
        });
    }

    debug_assert!(out.iter().all(Program::is_drf), "scenario program is racy");
    out
}

/// Epoch in which only p0 writes w0.
fn produce_one(procs: usize) -> Vec<Vec<Access>> {
    (0..procs)
        .map(|q| {
            if q == 0 {
                vec![Access {
                    word: 0,
                    op: OpKind::Write,
                }]
            } else {
                Vec::new()
            }
        })
        .collect()
}

/// Every DRF-per-epoch program of `opts.depth` reads/writes per
/// processor per epoch over `opts.words` words, quotiented by processor
/// permutation, in both layouts. Each program repeats its enumerated
/// epoch `opts.epochs - 1` times (stressing timetag aging) and ends in
/// an observer epoch where every processor reads every word — the step
/// that catches any staleness the enumerated epochs planted. Returns
/// the programs and the number dropped by symmetry.
#[must_use]
pub fn exhaustive_programs(opts: &ModelOptions) -> (Vec<Program>, usize) {
    let p = opts.procs as usize;
    let mut alphabet = Vec::new();
    for w in 0..opts.words {
        alphabet.push(Access {
            word: w,
            op: OpKind::Read,
        });
        alphabet.push(Access {
            word: w,
            op: OpKind::Write,
        });
    }
    let seqs = exhaustive::sequences(&alphabet, opts.depth);
    let bodies = exhaustive::assignments(p, &seqs);
    // Quotient by processor permutation: engines treat processors
    // symmetrically, so a body is represented by its sorted sequences.
    let (bodies, dropped) = exhaustive::canonical_subset(bodies, |body| {
        let mut key = body.clone();
        key.sort();
        key
    });

    let observer: Vec<Vec<Access>> = (0..p)
        .map(|_| {
            (0..opts.words)
                .map(|w| Access {
                    word: w,
                    op: OpKind::Read,
                })
                .collect()
        })
        .collect();

    let mut out = Vec::new();
    for body in bodies {
        let mut epochs = vec![body.clone(); opts.epochs.saturating_sub(1).max(1)];
        epochs.push(observer.clone());
        for layout in [Layout::Spread, Layout::Packed] {
            // One word never needs both layouts: packed and spread
            // coincide when there is nothing to share a line with.
            if layout == Layout::Packed && opts.words < 2 {
                continue;
            }
            let program = Program {
                name: format!("x{layout:?}[{}]", body_name(&body)),
                procs: opts.procs,
                words: opts.words,
                layout,
                epochs: epochs.clone(),
            };
            if program.is_drf() {
                out.push(program);
            }
        }
    }
    (out, dropped)
}

/// Compact body rendering for enumerated program names: `r0 w1|_|w0`.
fn body_name(body: &[Vec<Access>]) -> String {
    let per_proc: Vec<String> = body
        .iter()
        .map(|seq| {
            if seq.is_empty() {
                "_".to_string()
            } else {
                let ops: Vec<String> = seq
                    .iter()
                    .map(|a| {
                        let k = match a.op {
                            OpKind::Read => "r",
                            OpKind::Write => "w",
                            OpKind::ReadCritical => "R",
                            OpKind::WriteCritical => "W",
                        };
                        format!("{k}{}", a.word)
                    })
                    .collect();
                ops.join(" ")
            }
        })
        .collect();
    per_proc.join("|")
}

/// The full program suite for `opts`: scenarios plus the enumerated
/// set. Returns the programs and the symmetry-dropped count.
#[must_use]
pub fn programs(opts: &ModelOptions) -> (Vec<Program>, usize) {
    let mut progs = scenario_programs(opts.procs, opts.words);
    let (enumerated, dropped) = exhaustive_programs(opts);
    progs.extend(enumerated);
    (progs, dropped)
}

/// Model-checks each scheme against the full program suite.
///
/// # Panics
///
/// Panics if an id in `ids` is not in the global registry (resolve
/// names through [`registry::SchemeRegistry::lookup`] first).
#[must_use]
pub fn check_schemes(ids: &[SchemeId], opts: &ModelOptions) -> ModelReport {
    let (progs, dropped) = programs(opts);
    let schemes = ids
        .iter()
        .map(|&id| {
            let scheme = registry::global()
                .get(id)
                .expect("model-checked scheme must be registered");
            check_scheme(scheme, &progs, opts)
        })
        .collect();
    ModelReport {
        schemes,
        programs: progs.len(),
        dropped,
        options: *opts,
    }
}

/// Model-checks one scheme against `progs`, stopping at the first
/// violation (shrunk to a 1-minimal trace).
#[must_use]
pub fn check_scheme(
    scheme: &'static Scheme,
    progs: &[Program],
    opts: &ModelOptions,
) -> SchemeReport {
    let mut report = SchemeReport {
        scheme: scheme.id(),
        programs: 0,
        states: 0,
        schedules: 0,
        claims: 0,
        truncated: false,
        violations: Vec::new(),
    };
    for program in progs {
        let mut explorer = Explorer::new(scheme, program, opts);
        explorer.explore();
        report.programs += 1;
        report.states += explorer.states;
        report.schedules += explorer.schedules;
        report.claims += explorer.claims;
        report.truncated |= explorer.truncated;
        if let Some((trace, invariant, message)) = explorer.violation {
            let (trace, message) =
                explorer_shrink(scheme, program, opts, trace, &invariant, message);
            report.violations.push(ModelViolation {
                scheme: scheme.id(),
                program: program.name.clone(),
                invariant,
                message,
                trace,
            });
            break;
        }
    }
    report
}

/// Greedy delta debugging: drop any single step while the same
/// invariant still fires, iterated to fixpoint (1-minimality). A
/// run-ahead claim is judged against the epoch body its barriers select,
/// so a [`RUN_AHEAD_COMMUTES`] trace keeps every barrier: dropping one
/// would judge the claim against the wrong epoch.
fn explorer_shrink(
    scheme: &'static Scheme,
    program: &Program,
    opts: &ModelOptions,
    mut trace: Vec<Step>,
    invariant: &str,
    mut message: String,
) -> (Vec<Step>, String) {
    let explorer = Explorer::new(scheme, program, opts);
    let fires = |candidate: &[Step]| {
        if invariant != RUN_AHEAD_COMMUTES {
            return explorer.run(candidate).map(drop);
        }
        // A claim trace is a prefix, then `a`, then `b` of another
        // processor, judged at the state the prefix reaches.
        let [prefix @ .., a, b] = candidate else {
            return Ok(());
        };
        let Ok(before) = explorer.run(prefix) else {
            return Ok(());
        };
        if !explorer.declares_commuting(&before, *a, *b) {
            return Ok(());
        }
        explorer.check_claim(
            (*a, &explorer.step(before.clone(), *a)),
            (*b, &explorer.step(before, *b)),
        )
    };
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < trace.len() {
            if invariant == RUN_AHEAD_COMMUTES && trace[i] == Step::Boundary {
                i += 1;
                continue;
            }
            let mut candidate = trace.clone();
            candidate.remove(i);
            match fires(&candidate) {
                Err((name, msg)) if name == invariant => {
                    trace = candidate;
                    message = msg;
                    improved = true;
                }
                _ => i += 1,
            }
        }
        if !improved {
            return (trace, message);
        }
    }
}

/// One search state: the stepper after the path that reached it, the
/// epoch it is in and each processor's position in that epoch's body.
#[derive(Clone)]
struct Node {
    stepper: EngineStepper,
    epoch: usize,
    pos: Vec<usize>,
}

/// A step applied to a node: the child and the step's outcome (an
/// access's; `None` for a barrier), or the first `(invariant, message)`
/// violation.
type Stepped = Result<(Node, Option<AccessOutcome>), (String, String)>;

/// Stateful DFS over the interleavings of one (scheme, program) pair.
struct Explorer<'a> {
    scheme: &'static Scheme,
    program: &'a Program,
    opts: &'a ModelOptions,
    cfg: EngineConfig,
    invariants: Vec<ModelInvariant>,
    num_sets: usize,
    visited: HashSet<u64>,
    states: u64,
    schedules: u64,
    claims: u64,
    truncated: bool,
    /// First violation: (full path ending at the violating step,
    /// invariant name, message).
    violation: Option<(Vec<Step>, String, String)>,
}

impl<'a> Explorer<'a> {
    fn new(scheme: &'static Scheme, program: &'a Program, opts: &'a ModelOptions) -> Self {
        let cfg = model_config(program.procs);
        Explorer {
            scheme,
            program,
            opts,
            num_sets: cfg.cache.num_sets(),
            cfg,
            invariants: scheme.model_invariants(),
            visited: HashSet::new(),
            states: 0,
            schedules: 0,
            claims: 0,
            truncated: false,
            violation: None,
        }
    }

    /// The state before the first step: a fresh engine at the head of
    /// every processor's first sequence.
    fn root(&self) -> Node {
        Node {
            stepper: EngineStepper::new(self.scheme.id(), self.cfg.clone()),
            epoch: 0,
            pos: vec![0; self.program.procs as usize],
        }
    }

    fn explore(&mut self) {
        let root = self.root();
        self.dfs(&mut Vec::new(), &root, &[]);
    }

    fn stop(&self) -> bool {
        self.violation.is_some() || self.truncated
    }

    /// Explores the subtree of `node`, reached by `path`: checks its
    /// run-ahead claims, then descends into each enabled step that is
    /// not asleep.
    fn dfs(&mut self, path: &mut Vec<Step>, node: &Node, sleep: &[Step]) {
        if self.stop() {
            return;
        }
        let Some(body) = self.program.epochs.get(node.epoch) else {
            self.schedules += 1;
            return;
        };
        let mut enabled: Vec<Step> = (0..node.pos.len())
            .filter_map(|p| {
                body[p].get(node.pos[p]).map(|&access| Step::Op {
                    proc: p as u32,
                    access,
                })
            })
            .collect();
        if enabled.is_empty() {
            enabled.push(Step::Boundary);
        }
        // Each enabled step is applied once, to a copy of this node; the
        // claims and the descent share the children.
        let children: Vec<(Step, Stepped)> = enabled
            .into_iter()
            .map(|t| (t, self.step(node.clone(), t)))
            .collect();
        if let Err(found) = self.check_claims(path, node, &children) {
            self.violation = Some(found);
            return;
        }
        let mut sleeping = sleep.to_vec();
        for (t, child) in children {
            if sleeping.contains(&t) {
                continue;
            }
            path.push(t);
            match child {
                Err((invariant, message)) => {
                    self.violation = Some((path.clone(), invariant, message));
                }
                Ok((child, _)) => {
                    // A transition sleeps in the child only while it
                    // stays independent of what just executed; the
                    // barrier is dependent with everything.
                    let child_sleep: Vec<Step> = sleeping
                        .iter()
                        .filter(|&&u| self.independent(u, t))
                        .copied()
                        .collect();
                    if self.visit(&child, &child_sleep) {
                        self.dfs(path, &child, &child_sleep);
                    }
                }
            }
            path.pop();
            if self.stop() {
                return;
            }
            sleeping.push(t);
        }
    }

    /// Records a node; returns whether it is new (explore it) and
    /// enforces the state budget.
    fn visit(&mut self, node: &Node, sleep: &[Step]) -> bool {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        node.stepper.fingerprint().hash(&mut h);
        node.epoch.hash(&mut h);
        node.pos.hash(&mut h);
        let mut key_sleep = sleep.to_vec();
        key_sleep.sort();
        key_sleep.hash(&mut h);
        if !self.visited.insert(h.finish()) {
            return false;
        }
        self.states += 1;
        if self.states >= self.opts.max_states {
            self.truncated = true;
            return false;
        }
        true
    }

    /// Two steps commute iff they come from different processors and
    /// land in different cache sets (same-set accesses interact through
    /// eviction and line-grained directory/update state even across
    /// words); the barrier commutes with nothing.
    fn independent(&self, a: Step, b: Step) -> bool {
        match (a.op(), b.op()) {
            (Some((pa, aa)), Some((pb, ab))) => {
                pa != pb && self.set_of(aa.word) != self.set_of(ab.word)
            }
            _ => false,
        }
    }

    fn set_of(&self, word: u32) -> usize {
        let line = self.cfg.cache.geometry.line_of(self.program.addr(word));
        (line.0 % self.num_sets as u64) as usize
    }

    /// Checks the engine's run-ahead claims at `node` (reached by `path`),
    /// whose enabled steps lead to `children`: every ordered pair of
    /// enabled steps that [`Explorer::declares_commuting`] admits. Returns
    /// the first broken claim as `(trace, invariant, message)`.
    fn check_claims(
        &mut self,
        path: &[Step],
        node: &Node,
        children: &[(Step, Stepped)],
    ) -> Result<(), (Vec<Step>, String, String)> {
        for (a, after_a) in children {
            for (b, after_b) in children {
                if !self.declares_commuting(node, *a, *b) {
                    continue;
                }
                self.claims += 1;
                if let Err((invariant, message)) = self.check_claim((*a, after_a), (*b, after_b)) {
                    let mut trace = path.to_vec();
                    trace.extend([*a, *b]);
                    return Err((trace, invariant, message));
                }
            }
        }
        Ok(())
    }

    /// For accesses `a` and `b` of two processors, the first declared
    /// commuting at their common parent, given that parent's children
    /// after each: `a` then `b` and `b` then `a` must agree on both
    /// outcomes and on the final fingerprint, and `a` must still commute
    /// after `b`. A step that breaks another invariant is left to the
    /// exploration proper.
    fn check_claim(
        &self,
        (step_a, after_a): (Step, &Stepped),
        (step_b, after_b): (Step, &Stepped),
    ) -> Result<(), (String, String)> {
        let (Ok((after_a, a_first)), Ok((after_b, b_first))) = (after_a, after_b) else {
            return Ok(());
        };
        let (Ok((ab, b_second)), Ok((ba, a_second))) = (
            self.step(after_a.clone(), step_b),
            self.step(after_b.clone(), step_a),
        ) else {
            return Ok(());
        };
        let broken = |what: String| {
            Err((
                RUN_AHEAD_COMMUTES.to_string(),
                format!("{step_a} is declared commuting, but {what}"),
            ))
        };
        if *a_first != a_second || b_second != *b_first {
            return broken(format!(
                "its outcome is {a_first:?} before and {a_second:?} after {step_b}, whose outcome is {b_second:?} and {b_first:?}"
            ));
        }
        if ab.stepper.fingerprint() != ba.stepper.fingerprint() {
            return broken(format!(
                "issued before and after {step_b} it leaves different states"
            ));
        }
        if !self.declares_commuting(after_b, step_a, step_b) {
            return broken(format!("not after {step_b}"));
        }
        Ok(())
    }

    /// Whether `a` and `b` are accesses of two processors and the engine
    /// at `node` declares `a` commuting in the node's epoch, whose table
    /// records the program's accesses of that epoch plus `a` and `b`. An
    /// order-insensitive engine claims every access of an epoch without
    /// critical accesses: the heap replays only sync-free epochs.
    fn declares_commuting(&self, node: &Node, a: Step, b: Step) -> bool {
        let (Some((p, x)), Some((q, _))) = (a.op(), b.op()) else {
            return false;
        };
        if p == q {
            return false;
        }
        let engine = node.stepper.engine();
        let body = self
            .program
            .epochs
            .get(node.epoch)
            .map_or(&[][..], Vec::as_slice);
        if engine.order_insensitive() {
            return body
                .iter()
                .flatten()
                .all(|y| matches!(y.op, OpKind::Read | OpKind::Write));
        }
        let accesses = body
            .iter()
            .enumerate()
            .flat_map(|(p, seq)| seq.iter().map(move |&x| (p as u32, x)));
        let mut refs = EpochRefs::new(
            self.program.procs,
            self.cfg.shared_limit,
            self.cfg.cache.geometry,
        );
        refs.begin_epoch();
        for (r, y) in accesses.chain([a, b].into_iter().filter_map(Step::op)) {
            refs.record(ProcId(r), self.program.addr(y.word));
        }
        let write = matches!(x.op, OpKind::Write | OpKind::WriteCritical);
        engine.commutes(ProcId(p), self.program.addr(x.word), write, &refs)
    }

    /// Replays `steps` from a fresh engine with every check. Only the
    /// shrinker needs it: its candidates are arbitrary traces, with no
    /// saved state to start from.
    fn run(&self, steps: &[Step]) -> Result<Node, (String, String)> {
        steps.iter().try_fold(self.root(), |node, &step| {
            self.step(node, step).map(|(child, _)| child)
        })
    }

    /// Applies `step` to `node` with every check: the sabotage hook, then
    /// accounting and the scheme's invariants. Returns the child and the
    /// step's outcome (a write's is its stall), or the first violation —
    /// the engines' freshness assertions surface as caught panics.
    fn step(&self, mut node: Node, step: Step) -> Stepped {
        let program = self.program;
        let stepper = &mut node.stepper;
        let write = |stall| AccessOutcome { stall, miss: None };
        let outcome = catch_cell_panic(|| match step {
            Step::Boundary => {
                stepper.boundary();
                None
            }
            Step::Op { proc, access } => {
                let p = ProcId(proc);
                let addr = program.addr(access.word);
                Some(match access.op {
                    OpKind::Read => stepper.read(p, addr),
                    OpKind::Write => write(stepper.write(p, addr)),
                    OpKind::ReadCritical => stepper.read_critical(p, addr),
                    OpKind::WriteCritical => write(stepper.write_critical(p, addr)),
                })
            }
        })
        .map_err(|panic| ("freshness".to_string(), panic))?;
        if let Some(sabotage) = self.opts.sabotage {
            sabotage.apply(stepper.engine_mut());
        }
        stepper
            .check_accounting()
            .map_err(|msg| ("accounting".to_string(), msg))?;
        for inv in &self.invariants {
            (inv.check)(stepper.engine()).map_err(|msg| (inv.name.to_string(), msg))?;
        }
        // The barrier starts every processor at the head of the next
        // epoch's sequence.
        match step {
            Step::Boundary => {
                node.epoch += 1;
                node.pos.fill(0);
            }
            Step::Op { proc, .. } => node.pos[proc as usize] += 1,
        }
        Ok((node, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_programs_are_drf_and_cover_layouts() {
        let progs = scenario_programs(3, 2);
        assert!(progs.iter().all(Program::is_drf));
        assert!(progs.iter().any(|p| p.layout == Layout::Packed));
        assert!(progs.iter().any(|p| p.name == "reset-stress"));
        // Reset stress outlives the timetag modulus.
        let modulus = 1usize << model_config(3).tag_bits;
        let reset = progs.iter().find(|p| p.name == "reset-stress").unwrap();
        assert!(reset.epochs.len() > modulus + 1);
    }

    #[test]
    fn drf_filter_rejects_races() {
        let racy = Program {
            name: "racy".into(),
            procs: 2,
            words: 1,
            layout: Layout::Spread,
            epochs: vec![vec![
                vec![Access {
                    word: 0,
                    op: OpKind::Write,
                }],
                vec![Access {
                    word: 0,
                    op: OpKind::Read,
                }],
            ]],
        };
        assert!(!racy.is_drf());
        // The same pair under the lock is fine.
        let locked = Program {
            epochs: vec![vec![
                vec![Access {
                    word: 0,
                    op: OpKind::WriteCritical,
                }],
                vec![Access {
                    word: 0,
                    op: OpKind::ReadCritical,
                }],
            ]],
            ..racy
        };
        assert!(locked.is_drf());
    }

    #[test]
    fn exhaustive_enumeration_is_drf_and_symmetry_reduced() {
        let opts = ModelOptions::default();
        let (progs, dropped) = exhaustive_programs(&opts);
        assert!(dropped > 0, "processor symmetry should drop duplicates");
        assert!(progs.iter().all(Program::is_drf));
        // Every program ends in the observer epoch: all-proc reads.
        for p in &progs {
            let last = p.epochs.last().unwrap();
            assert!(last
                .iter()
                .all(|seq| seq.iter().all(|a| a.op == OpKind::Read)));
        }
    }

    #[test]
    fn conflict_layout_maps_every_word_to_one_set() {
        assert_eq!(model_config(2).cache.num_sets(), MODEL_SETS as usize);
        let progs = scenario_programs(2, 2);
        let conflict = progs
            .iter()
            .find(|p| p.layout == Layout::Conflict)
            .expect("a conflict scenario");
        let geom = model_config(2).cache.geometry;
        let set = |w| geom.line_of(conflict.addr(w)).0 % u64::from(MODEL_SETS);
        assert_ne!(conflict.addr(0), conflict.addr(1));
        assert_eq!(set(0), set(1));
    }

    #[test]
    fn addresses_follow_the_layout() {
        let spread = scenario_programs(2, 2).remove(0);
        assert_eq!(spread.addr(1), WordAddr(u64::from(MODEL_LINE_WORDS)));
        let packed = Program {
            layout: Layout::Packed,
            ..spread
        };
        assert_eq!(packed.addr(1), WordAddr(1));
    }
}
