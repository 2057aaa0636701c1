//! One configuration object spanning compiler, trace, machine, and scheme.

use tpi_cache::{CacheConfig, ResetStrategy, WriteBufferKind, WritePolicy};
use tpi_compiler::OptLevel;
use tpi_mem::{Cycle, LineGeometry};
use tpi_net::NetworkConfig;
use tpi_proto::{EngineConfig, SchemeId};
use tpi_sim::SimOptions;
use tpi_trace::{SchedulePolicy, TraceOptions};

/// Every knob of one simulated experiment.
///
/// [`ExperimentConfig::paper`] reproduces the paper's Figure 8 machine:
/// 16 single-issue processors, 64 KB direct-mapped caches with 4-word
/// (16-byte) lines, 8-bit timetags with a 128-cycle two-phase reset, an
/// analytic multistage network with a 100-cycle base line-miss latency,
/// write-through write-allocate caches with infinite write buffers for the
/// HSCD schemes, and weak consistency throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Coherence scheme under test (a registry [`SchemeId`], resolved
    /// through [`tpi_proto::registry::global()`]).
    pub scheme: SchemeId,
    /// Compiler optimization level (marking quality).
    pub opt_level: OptLevel,
    /// Number of processors.
    ///
    /// The paper's machine is 16 processors, but this is the scalability
    /// axis of the large-scale study (EXPERIMENTS.md E24): 64, 256, and
    /// 1024 are the studied points, and the builder accepts anything in
    /// `1..=`[`ExperimentConfig::MAX_PROCS`]. Pair large counts with
    /// [`Scale::Large`](tpi_workloads::Scale) kernels so the widest DOALL
    /// still covers every processor.
    pub procs: u32,
    /// Cache capacity per node, bytes.
    pub cache_bytes: usize,
    /// Words per cache line.
    pub line_words: u32,
    /// Cache associativity.
    pub assoc: u32,
    /// Timetag width (TPI).
    pub tag_bits: u32,
    /// Timetag recycling strategy (TPI).
    pub reset_strategy: ResetStrategy,
    /// Stall per two-phase reset (TPI).
    pub reset_cycles: Cycle,
    /// Write buffer organization (write-through schemes).
    pub wbuffer: WriteBufferKind,
    /// HSCD cache write policy (TPI).
    pub write_policy: WritePolicy,
    /// DOALL scheduling policy.
    pub policy: SchedulePolicy,
    /// Seed for dynamic scheduling and opaque subscripts.
    pub seed: u64,
    /// Barrier / loop-scheduling overhead per epoch.
    pub epoch_setup_cycles: Cycle,
    /// LimitLess hardware pointers.
    pub limitless_pointers: u32,
    /// LimitLess software-trap penalty.
    pub limitless_trap_cycles: Cycle,
    /// Whether verified Time-Read hits re-stamp their word (TPI).
    pub restamp_verified_hits: bool,
    /// Panic if any cache hit observes stale data (always on in debug
    /// builds; enable in release to make soundness executable).
    pub verify_freshness: bool,
    /// Optional on-chip L1 in front of the tagged TPI cache (two-level
    /// operation, Section 3).
    pub l1: Option<tpi_proto::L1Config>,
    /// Rotate serial epochs across processors instead of pinning them to
    /// processor 0.
    pub rotate_serial: bool,
    /// What a failed TPI tag check refetches.
    pub coherence_fetch: tpi_proto::FetchGranularity,
    /// Logical-timestamp lease length granted to reads (TARDIS).
    pub tardis_lease: u64,
    /// Competitive update/invalidate threshold (HYB).
    pub hybrid_threshold: u32,
}

impl ExperimentConfig {
    /// Upper bound on [`procs`](ExperimentConfig::procs) accepted by the
    /// builder (and therefore by every front end that builds through it,
    /// including the `tpi-serve` wire layer). Directory state, network
    /// queues, and per-processor replay state all grow linearly in the
    /// processor count, so an unbounded axis would let one request
    /// exhaust memory; 4096 is 4x the largest studied point (1024).
    pub const MAX_PROCS: u32 = 4096;

    /// Starts a [`ConfigBuilder`] from the paper's defaults. This is the
    /// preferred way to describe a non-default machine: invalid
    /// combinations are rejected at [`build`](ConfigBuilder::build) time
    /// with a [`ConfigError`] instead of panicking mid-simulation.
    ///
    /// ```
    /// use tpi::ExperimentConfig;
    /// use tpi_proto::SchemeId;
    ///
    /// let cfg = ExperimentConfig::builder()
    ///     .scheme(SchemeId::SC)
    ///     .line_words(8)
    ///     .cache_bytes(128 * 1024)
    ///     .build()
    ///     .expect("valid machine");
    /// assert_eq!(cfg.line_words, 8);
    /// ```
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            cfg: ExperimentConfig::paper(),
        }
    }

    /// The paper's default machine, running the TPI scheme.
    #[must_use]
    pub fn paper() -> Self {
        ExperimentConfig {
            scheme: SchemeId::TPI,
            opt_level: OptLevel::Full,
            procs: 16,
            cache_bytes: 64 * 1024,
            line_words: 4,
            assoc: 1,
            tag_bits: 8,
            reset_strategy: ResetStrategy::TwoPhase,
            reset_cycles: 128,
            wbuffer: WriteBufferKind::Fifo,
            write_policy: WritePolicy::Through,
            policy: SchedulePolicy::StaticBlock,
            seed: 0xC0FF_EE00,
            epoch_setup_cycles: 100,
            limitless_pointers: 10,
            limitless_trap_cycles: 50,
            restamp_verified_hits: true,
            verify_freshness: cfg!(debug_assertions),
            l1: None,
            rotate_serial: false,
            coherence_fetch: tpi_proto::FetchGranularity::Line,
            tardis_lease: 8,
            hybrid_threshold: 4,
        }
    }

    /// Line geometry derived from `line_words`.
    #[must_use]
    pub fn geometry(&self) -> LineGeometry {
        LineGeometry::new(self.line_words)
    }

    /// The trace-generation options this configuration induces.
    #[must_use]
    pub fn trace_options(&self) -> TraceOptions {
        TraceOptions {
            num_procs: self.procs,
            policy: self.policy,
            seed: self.seed,
            check_races: true,
            geometry: self.geometry(),
            rotate_serial: self.rotate_serial,
        }
    }

    /// The engine configuration this experiment induces, given the shared
    /// segment bound (total words of the program's layout).
    #[must_use]
    pub fn engine_config(&self, shared_limit: u64) -> EngineConfig {
        EngineConfig {
            procs: self.procs,
            cache: CacheConfig {
                size_bytes: self.cache_bytes,
                assoc: self.assoc,
                geometry: self.geometry(),
            },
            net: NetworkConfig::paper_default(self.procs),
            tag_bits: self.tag_bits,
            reset_strategy: self.reset_strategy,
            reset_cycles: self.reset_cycles,
            wbuffer: self.wbuffer,
            write_policy: self.write_policy,
            shared_limit,
            limitless_pointers: self.limitless_pointers,
            limitless_trap_cycles: self.limitless_trap_cycles,
            restamp_verified_hits: self.restamp_verified_hits,
            verify_freshness: self.verify_freshness,
            l1: self.l1,
            coherence_fetch: self.coherence_fetch,
            tardis_lease: self.tardis_lease,
            hybrid_threshold: self.hybrid_threshold,
        }
    }

    /// The simulator options this experiment induces.
    #[must_use]
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            epoch_setup_cycles: self.epoch_setup_cycles,
        }
    }

    /// Compiler options this experiment induces.
    #[must_use]
    pub fn compiler_options(&self) -> tpi_compiler::CompilerOptions {
        tpi_compiler::CompilerOptions {
            level: self.opt_level,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::paper()
    }
}

/// Why a [`ConfigBuilder`] refused to produce a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `procs` was zero.
    NoProcessors,
    /// `procs` exceeded [`ExperimentConfig::MAX_PROCS`].
    TooManyProcessors(u32),
    /// `line_words` outside `1..=64` (the per-word state bitmasks are 64
    /// bits wide).
    LineWords(u32),
    /// `assoc` was zero.
    ZeroAssociativity,
    /// A cache level's capacity / line size / associativity don't form a
    /// power-of-two number of sets. The string names the level and the
    /// failed constraint.
    CacheGeometry(String),
    /// Timetag width the reset hardware cannot support: two-phase reset
    /// needs at least one tag bit to split the space into halves, and tags
    /// are stored in 16-bit fields — so `2..=16` is representable.
    TagWidth {
        /// The rejected width.
        bits: u32,
        /// The reset strategy it was paired with.
        strategy: ResetStrategy,
    },
    /// LimitLESS was selected with zero hardware pointers.
    NoLimitlessPointers,
    /// The scheme id is not in the global registry.
    UnknownScheme(SchemeId),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "need at least one processor"),
            ConfigError::TooManyProcessors(p) => write!(
                f,
                "procs {p} exceeds the supported maximum of {}",
                ExperimentConfig::MAX_PROCS
            ),
            ConfigError::LineWords(w) => {
                write!(f, "line_words must be in 1..=64, got {w}")
            }
            ConfigError::ZeroAssociativity => write!(f, "associativity must be at least 1"),
            ConfigError::CacheGeometry(why) => write!(f, "inconsistent cache geometry: {why}"),
            ConfigError::TagWidth { bits, strategy } => write!(
                f,
                "timetag width {bits} unsupported ({strategy:?} reset needs 2..=16 bits)"
            ),
            ConfigError::NoLimitlessPointers => {
                write!(f, "LimitLESS needs at least one hardware pointer")
            }
            ConfigError::UnknownScheme(id) => {
                write!(f, "scheme \"{}\" is not registered", id.as_str())
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ExperimentConfig`], seeded with the paper's defaults.
/// Every setter overrides one knob; [`build`](ConfigBuilder::build)
/// validates the combination. See [`ExperimentConfig::builder`].
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the configuration"]
pub struct ConfigBuilder {
    cfg: ExperimentConfig,
}

macro_rules! setters {
    ($($(#[$doc:meta])+ $field:ident: $ty:ty),+ $(,)?) => {
        $(
            $(#[$doc])+
            pub fn $field(mut self, $field: $ty) -> Self {
                self.cfg.$field = $field;
                self
            }
        )+
    };
}

impl ConfigBuilder {
    /// Coherence scheme under test, by registry [`SchemeId`].
    pub fn scheme(mut self, scheme: SchemeId) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    setters! {
        /// Compiler optimization level (marking quality).
        opt_level: OptLevel,
        /// Number of processors.
        procs: u32,
        /// Cache capacity per node, bytes.
        cache_bytes: usize,
        /// Words per cache line.
        line_words: u32,
        /// Cache associativity.
        assoc: u32,
        /// Timetag width (TPI).
        tag_bits: u32,
        /// Timetag recycling strategy (TPI).
        reset_strategy: ResetStrategy,
        /// Stall per two-phase reset (TPI).
        reset_cycles: Cycle,
        /// Write buffer organization (write-through schemes).
        wbuffer: WriteBufferKind,
        /// HSCD cache write policy (TPI).
        write_policy: WritePolicy,
        /// DOALL scheduling policy.
        policy: SchedulePolicy,
        /// Seed for dynamic scheduling and opaque subscripts.
        seed: u64,
        /// Barrier / loop-scheduling overhead per epoch.
        epoch_setup_cycles: Cycle,
        /// LimitLess hardware pointers.
        limitless_pointers: u32,
        /// LimitLess software-trap penalty.
        limitless_trap_cycles: Cycle,
        /// Whether verified Time-Read hits re-stamp their word (TPI).
        restamp_verified_hits: bool,
        /// Panic if any cache hit observes stale data.
        verify_freshness: bool,
        /// Optional on-chip L1 in front of the tagged TPI cache.
        l1: Option<tpi_proto::L1Config>,
        /// Rotate serial epochs across processors instead of pinning them
        /// to processor 0.
        rotate_serial: bool,
        /// What a failed TPI tag check refetches.
        coherence_fetch: tpi_proto::FetchGranularity,
        /// Logical-timestamp lease length granted to reads (TARDIS).
        tardis_lease: u64,
        /// Competitive update/invalidate threshold (HYB).
        hybrid_threshold: u32,
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// zero processors, an unrepresentable line size, a cache level whose
    /// capacity / line size / associativity don't yield a power-of-two
    /// number of sets, a timetag width the reset hardware can't support,
    /// or LimitLESS with no pointers.
    pub fn build(self) -> Result<ExperimentConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.procs == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if cfg.procs > ExperimentConfig::MAX_PROCS {
            return Err(ConfigError::TooManyProcessors(cfg.procs));
        }
        if !(1..=64).contains(&cfg.line_words) {
            return Err(ConfigError::LineWords(cfg.line_words));
        }
        if cfg.assoc == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        let line_bytes = cfg.geometry().line_bytes();
        check_level("cache", cfg.cache_bytes, line_bytes, cfg.assoc)?;
        if let Some(l1) = cfg.l1 {
            if l1.assoc == 0 {
                return Err(ConfigError::ZeroAssociativity);
            }
            check_level("L1", l1.size_bytes, line_bytes, l1.assoc)?;
        }
        if !(2..=16).contains(&cfg.tag_bits) {
            return Err(ConfigError::TagWidth {
                bits: cfg.tag_bits,
                strategy: cfg.reset_strategy,
            });
        }
        if tpi_proto::registry::global().get(cfg.scheme).is_err() {
            return Err(ConfigError::UnknownScheme(cfg.scheme));
        }
        if cfg.scheme == SchemeId::LIMITLESS && cfg.limitless_pointers == 0 {
            return Err(ConfigError::NoLimitlessPointers);
        }
        Ok(cfg)
    }
}

/// Checks one cache level's capacity / line size / associativity the same
/// way [`tpi_cache::CacheConfig`] asserts them, but as `Err` not panic.
fn check_level(
    level: &str,
    size_bytes: usize,
    line_bytes: usize,
    assoc: u32,
) -> Result<(), ConfigError> {
    if size_bytes == 0 || !size_bytes.is_multiple_of(line_bytes) {
        return Err(ConfigError::CacheGeometry(format!(
            "{level} capacity {size_bytes} B is not a positive multiple of the {line_bytes} B line"
        )));
    }
    let lines = size_bytes / line_bytes;
    if !lines.is_multiple_of(assoc as usize) {
        return Err(ConfigError::CacheGeometry(format!(
            "{level}: {lines} lines do not divide into {assoc}-way sets"
        )));
    }
    let sets = lines / assoc as usize;
    if !sets.is_power_of_two() {
        return Err(ConfigError::CacheGeometry(format!(
            "{level}: {sets} sets is not a power of two"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_figure8() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.procs, 16);
        assert_eq!(c.cache_bytes, 64 * 1024);
        assert_eq!(c.line_words, 4);
        assert_eq!(c.assoc, 1);
        assert_eq!(c.tag_bits, 8);
        assert_eq!(c.reset_cycles, 128);
        let e = c.engine_config(1000);
        assert_eq!(e.cache.num_lines(), 4096);
        assert_eq!(e.shared_limit, 1000);
        assert_eq!(c.trace_options().num_procs, 16);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ExperimentConfig::default(), ExperimentConfig::paper());
    }

    #[test]
    fn builder_defaults_to_paper() {
        assert_eq!(
            ExperimentConfig::builder().build().unwrap(),
            ExperimentConfig::paper()
        );
    }

    #[test]
    fn builder_applies_every_setter() {
        let cfg = ExperimentConfig::builder()
            .scheme(SchemeId::SC)
            .opt_level(OptLevel::Intra)
            .procs(8)
            .cache_bytes(32 * 1024)
            .line_words(8)
            .assoc(2)
            .tag_bits(4)
            .reset_strategy(ResetStrategy::FullFlushOnWrap)
            .reset_cycles(64)
            .wbuffer(WriteBufferKind::Coalescing)
            .write_policy(WritePolicy::BackAtBoundary)
            .policy(SchedulePolicy::StaticCyclic)
            .seed(7)
            .epoch_setup_cycles(50)
            .limitless_pointers(4)
            .limitless_trap_cycles(25)
            .restamp_verified_hits(false)
            .verify_freshness(true)
            .l1(Some(tpi_proto::L1Config::paper_default()))
            .rotate_serial(true)
            .coherence_fetch(tpi_proto::FetchGranularity::Word)
            .tardis_lease(16)
            .hybrid_threshold(2)
            .build()
            .unwrap();
        assert_eq!(cfg.scheme, SchemeId::SC);
        assert_eq!(cfg.tardis_lease, 16);
        assert_eq!(cfg.hybrid_threshold, 2);
        assert_eq!(cfg.procs, 8);
        assert_eq!(cfg.line_words, 8);
        assert_eq!(cfg.assoc, 2);
        assert_eq!(cfg.tag_bits, 4);
        assert!(cfg.rotate_serial);
        assert!(cfg.l1.is_some());
    }

    #[test]
    fn builder_rejects_unsupported_tag_widths() {
        for bits in [0, 1, 17, 32] {
            let err = ExperimentConfig::builder()
                .tag_bits(bits)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::TagWidth { bits: b, .. } if b == bits),
                "{bits}: {err}"
            );
        }
        // The boundary widths the reset hardware does support.
        for bits in [2, 16] {
            assert!(ExperimentConfig::builder().tag_bits(bits).build().is_ok());
        }
    }

    #[test]
    fn builder_rejects_degenerate_machines() {
        assert_eq!(
            ExperimentConfig::builder().procs(0).build().unwrap_err(),
            ConfigError::NoProcessors
        );
        assert_eq!(
            ExperimentConfig::builder().procs(5000).build().unwrap_err(),
            ConfigError::TooManyProcessors(5000)
        );
        // Every studied point of the scalability axis builds.
        for procs in [64, 256, 1024] {
            assert!(ExperimentConfig::builder().procs(procs).build().is_ok());
        }
        assert_eq!(
            ExperimentConfig::builder().assoc(0).build().unwrap_err(),
            ConfigError::ZeroAssociativity
        );
        assert!(matches!(
            ExperimentConfig::builder()
                .line_words(65)
                .build()
                .unwrap_err(),
            ConfigError::LineWords(65)
        ));
        assert!(matches!(
            ExperimentConfig::builder()
                .scheme(SchemeId::LIMITLESS)
                .limitless_pointers(0)
                .build()
                .unwrap_err(),
            ConfigError::NoLimitlessPointers
        ));
    }

    #[test]
    fn builder_accepts_any_registered_scheme_and_rejects_others() {
        for scheme in tpi_proto::registry::global().all() {
            let cfg = ExperimentConfig::builder().scheme(scheme.id()).build();
            assert!(cfg.is_ok(), "{} must build", scheme.id().as_str());
        }
        let err = ExperimentConfig::builder()
            .scheme(SchemeId::new("mesi"))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::UnknownScheme(SchemeId::new("mesi")));
    }

    #[test]
    fn builder_rejects_inconsistent_cache_geometry() {
        // 48 KB of 4-word (16 B) lines is 3072 lines -> 3072 direct-mapped
        // sets, not a power of two.
        let err = ExperimentConfig::builder()
            .cache_bytes(48 * 1024)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::CacheGeometry(_)), "{err}");
        // 3-way over a power-of-two line count doesn't divide evenly.
        let err = ExperimentConfig::builder().assoc(3).build().unwrap_err();
        assert!(matches!(err, ConfigError::CacheGeometry(_)), "{err}");
        // The same checks guard the optional L1.
        let err = ExperimentConfig::builder()
            .l1(Some(tpi_proto::L1Config {
                size_bytes: 3000,
                assoc: 1,
                l2_hit_cycles: 5,
            }))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::CacheGeometry(_)), "{err}");
        // A valid 2-way 128 KB machine passes.
        assert!(ExperimentConfig::builder()
            .cache_bytes(128 * 1024)
            .assoc(2)
            .build()
            .is_ok());
    }
}
