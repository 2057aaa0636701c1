//! Pluggable scheme registry: every coherence scheme, by name.
//!
//! A coherence protocol plugs into the study by implementing the
//! [`Scheme`] trait — a stable [`SchemeId`], a table label, a storage-cost
//! model (Figure 5), capability flags, and an engine factory — and
//! registering itself in a [`SchemeRegistry`]. Every consumer (the
//! simulator, the experiment runner, the service wire format, the CLI
//! drivers, the differential sweep) resolves schemes by name through the
//! registry instead of matching on an enum, so landing a new protocol
//! means adding one module here and nothing elsewhere.
//!
//! [`global()`] holds the built-in registry: the paper's four main
//! schemes (BASE, SC, TPI, HW), the LimitLess and IDEAL variants, and the
//! two post-paper protocols this repo adds for comparison — TARDIS
//! (timestamp-lease coherence, Yu & Devadas) and HYB (competitive
//! update/invalidate, Dahlgren & Stenström).

use std::sync::OnceLock;

use crate::hybrid::HybridEngine;
use crate::invariant::{self, ModelInvariant};
use crate::storage::{self, StorageOverhead, StorageParams};
use crate::tardis::TardisEngine;
use crate::{
    BaseEngine, CoherenceEngine, DirectoryEngine, EngineConfig, IdealEngine, ScEngine, TpiEngine,
};

/// Stable identifier of a registered scheme (lower-case, e.g. `"tpi"`).
///
/// `SchemeId` is a `Copy` newtype over the scheme's interned id string, so
/// it can sit in `Copy + Hash` config and cache-key structs. Equality and
/// hashing are by id content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(&'static str);

impl SchemeId {
    /// No caching of shared data.
    pub const BASE: SchemeId = SchemeId("base");
    /// Software cache-bypass.
    pub const SC: SchemeId = SchemeId("sc");
    /// Two-phase invalidation (the paper's scheme).
    pub const TPI: SchemeId = SchemeId("tpi");
    /// Full-map directory, write-back MSI (label "HW").
    pub const FULL_MAP: SchemeId = SchemeId("hw");
    /// LimitLess directory.
    pub const LIMITLESS: SchemeId = SchemeId("ll");
    /// Perfect-coherence oracle.
    pub const IDEAL: SchemeId = SchemeId("ideal");
    /// Tardis timestamp-lease coherence.
    pub const TARDIS: SchemeId = SchemeId("tardis");
    /// Competitive hybrid update/invalidate.
    pub const HYBRID: SchemeId = SchemeId("hybrid");

    /// An id for a new (out-of-tree) scheme; use the associated constants
    /// for the built-ins. Ids should be short and lower-case.
    #[must_use]
    pub const fn new(id: &'static str) -> Self {
        SchemeId(id)
    }

    /// The id string (lower-case, stable across releases).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Short table label ("TPI", "HW", ...), resolved through the global
    /// registry; falls back to the raw id for unregistered schemes.
    #[must_use]
    pub fn label(self) -> &'static str {
        match global().get(self) {
            Ok(s) => s.label(),
            Err(_) => self.0,
        }
    }
}

impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Capability flags a scheme declares to its consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemeCaps {
    /// The engine does real work at epoch boundaries (write-buffer
    /// drains, timetag resets, timestamp joins) rather than treating them
    /// as no-ops.
    pub needs_epoch_boundary: bool,
    /// The engine consumes the compiler's reference markings (Time-Read /
    /// cache-bypass); mark-ignoring schemes can run unmarked traces.
    pub uses_compiler_marks: bool,
    /// Width of the per-word timestamps or timetags the scheme keeps, if
    /// any.
    pub timestamp_bits: Option<u32>,
}

/// A coherence scheme as the registry sees it: identity, metadata,
/// storage model, and an engine factory.
///
/// Implementations are `'static` unit structs registered once; see
/// `DESIGN.md` ("Adding a coherence scheme") for the full contract,
/// including the staleness-oracle obligations a new scheme must meet.
pub trait Scheme: Sync {
    /// Stable lower-case identifier (wire format, CLI `--scheme`).
    fn id(&self) -> SchemeId;

    /// Short table label (upper-case, e.g. "TPI").
    fn label(&self) -> &'static str;

    /// One-line human description for `/v1/schemes` and docs.
    fn description(&self) -> &'static str;

    /// Whether the scheme belongs to the paper's main four-way
    /// comparison tables (Figures 8-13).
    fn paper_main(&self) -> bool {
        false
    }

    /// Capability flags.
    fn caps(&self) -> SchemeCaps;

    /// Bookkeeping storage cost under the Figure 5 model.
    fn storage(&self, p: StorageParams) -> StorageOverhead;

    /// Cache-side bookkeeping bits per cached data word at the paper's
    /// Figure 5 machine parameters (a single comparable scalar for
    /// `/v1/schemes` metadata).
    fn storage_bits_per_word(&self) -> f64 {
        let p = StorageParams::paper_figure5();
        let words = (p.line_words * p.cache_lines_per_node * p.processors) as f64;
        self.storage(p).sram_bits as f64 / words
    }

    /// Builds a fresh engine for one simulation run.
    fn build(&self, cfg: EngineConfig) -> Box<dyn CoherenceEngine>;

    /// Scheme-specific safety invariants for `tpi-model`, checked against
    /// the live engine after every exploration step.
    ///
    /// The default is empty, but schemes with internal bookkeeping
    /// (directories, timetags, leases) should supply the invariants that
    /// make that bookkeeping checkable; see `DESIGN.md` ("Model checking
    /// the protocols").
    fn model_invariants(&self) -> Vec<ModelInvariant> {
        Vec::new()
    }
}

/// Errors from registry registration and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// A scheme with the same id (or label) is already registered.
    Duplicate {
        /// The contested id.
        id: SchemeId,
    },
    /// No registered scheme matches the requested name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// Ids of every registered scheme, in registration order.
        known: Vec<&'static str>,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate { id } => {
                write!(f, "scheme \"{}\" is already registered", id.as_str())
            }
            RegistryError::Unknown { name, known } => {
                write!(
                    f,
                    "unknown scheme \"{name}\" (registered: {})",
                    known.join(", ")
                )
            }
        }
    }
}

impl RegistryError {
    /// Stable machine-readable error code, shared with the serve wire
    /// layer's structured `BadRequest` errors so CLI drivers and `/v1`
    /// endpoints reject bad scheme names identically.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RegistryError::Duplicate { .. } => "duplicate_scheme",
            RegistryError::Unknown { .. } => "bad_field",
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of [`Scheme`]s, looked up by id or label
/// (case-insensitive).
#[derive(Default)]
pub struct SchemeRegistry {
    schemes: Vec<&'static dyn Scheme>,
}

impl SchemeRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        SchemeRegistry::default()
    }

    /// Registers `scheme`, rejecting id or label collisions with anything
    /// already registered.
    pub fn register(&mut self, scheme: &'static dyn Scheme) -> Result<(), RegistryError> {
        let id = scheme.id();
        let clashes = self.schemes.iter().any(|s| {
            s.id().as_str().eq_ignore_ascii_case(id.as_str())
                || s.label().eq_ignore_ascii_case(scheme.label())
        });
        if clashes {
            return Err(RegistryError::Duplicate { id });
        }
        self.schemes.push(scheme);
        Ok(())
    }

    /// Resolves `name` against scheme ids and labels, case-insensitively.
    pub fn lookup(&self, name: &str) -> Result<&'static dyn Scheme, RegistryError> {
        self.schemes
            .iter()
            .copied()
            .find(|s| {
                name.eq_ignore_ascii_case(s.id().as_str()) || name.eq_ignore_ascii_case(s.label())
            })
            .ok_or_else(|| RegistryError::Unknown {
                name: name.to_string(),
                known: self.schemes.iter().map(|s| s.id().as_str()).collect(),
            })
    }

    /// Resolves a [`SchemeId`] (exact, but ids are lower-case so this is
    /// the same match as [`SchemeRegistry::lookup`]).
    pub fn get(&self, id: SchemeId) -> Result<&'static dyn Scheme, RegistryError> {
        self.lookup(id.as_str())
    }

    /// All registered schemes, in registration order.
    #[must_use]
    pub fn all(&self) -> &[&'static dyn Scheme] {
        &self.schemes
    }

    /// Ids of the schemes in the paper's main comparison
    /// ([`Scheme::paper_main`]), in registration order.
    #[must_use]
    pub fn main_schemes(&self) -> Vec<SchemeId> {
        self.schemes
            .iter()
            .filter(|s| s.paper_main())
            .map(|s| s.id())
            .collect()
    }
}

macro_rules! builtin_scheme {
    (
        $ty:ident, $id:expr, $label:expr, $desc:expr,
        main: $main:expr, caps: $caps:expr,
        storage: $storage:expr, build: $build:expr,
        invariants: $invariants:expr
    ) => {
        #[doc = concat!("Built-in registry entry for the ", $label, " scheme.")]
        pub struct $ty;

        impl Scheme for $ty {
            fn id(&self) -> SchemeId {
                $id
            }
            fn label(&self) -> &'static str {
                $label
            }
            fn description(&self) -> &'static str {
                $desc
            }
            fn paper_main(&self) -> bool {
                $main
            }
            fn caps(&self) -> SchemeCaps {
                $caps
            }
            fn storage(&self, p: StorageParams) -> StorageOverhead {
                #[allow(clippy::redundant_closure_call)]
                ($storage)(p)
            }
            fn build(&self, cfg: EngineConfig) -> Box<dyn CoherenceEngine> {
                #[allow(clippy::redundant_closure_call)]
                ($build)(cfg)
            }
            fn model_invariants(&self) -> Vec<ModelInvariant> {
                #[allow(clippy::redundant_closure_call)]
                ($invariants)()
            }
        }
    };
}

builtin_scheme!(
    BaseScheme, SchemeId::BASE, "BASE",
    "Shared data is never cached; every shared access is a remote memory access.",
    main: true,
    caps: SchemeCaps { needs_epoch_boundary: false, uses_compiler_marks: false, timestamp_bits: None },
    storage: |_p: StorageParams| StorageOverhead::default(),
    build: |cfg| Box::new(BaseEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::base_invariants
);

builtin_scheme!(
    ScScheme, SchemeId::SC, "SC",
    "Software cache-bypass: compiler-marked potentially-stale loads always go to memory.",
    main: true,
    caps: SchemeCaps { needs_epoch_boundary: true, uses_compiler_marks: true, timestamp_bits: None },
    storage: |_p: StorageParams| StorageOverhead::default(),
    build: |cfg| Box::new(ScEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: Vec::new
);

builtin_scheme!(
    TpiScheme, SchemeId::TPI, "TPI",
    "Two-phase invalidation: per-word timetags checked against compiler epoch distances.",
    main: true,
    caps: SchemeCaps { needs_epoch_boundary: true, uses_compiler_marks: true, timestamp_bits: Some(8) },
    storage: storage::tpi,
    build: |cfg| Box::new(TpiEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::tpi_invariants
);

builtin_scheme!(
    FullMapScheme, SchemeId::FULL_MAP, "HW",
    "Full-map directory: three-state write-back invalidation protocol.",
    main: true,
    caps: SchemeCaps { needs_epoch_boundary: false, uses_compiler_marks: false, timestamp_bits: None },
    storage: storage::full_map,
    build: |cfg| Box::new(DirectoryEngine::full_map(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::directory_invariants
);

builtin_scheme!(
    LimitLessScheme, SchemeId::LIMITLESS, "LL",
    "LimitLess directory: limited hardware pointers with a software trap on overflow.",
    main: false,
    caps: SchemeCaps { needs_epoch_boundary: false, uses_compiler_marks: false, timestamp_bits: None },
    storage: storage::limitless_as_tabulated,
    build: |cfg| Box::new(DirectoryEngine::limitless(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::directory_invariants
);

builtin_scheme!(
    IdealScheme, SchemeId::IDEAL, "IDEAL",
    "Perfect-coherence oracle: only necessary misses (lower bound, not a real protocol).",
    main: false,
    caps: SchemeCaps { needs_epoch_boundary: false, uses_compiler_marks: false, timestamp_bits: None },
    storage: |_p: StorageParams| StorageOverhead::default(),
    build: |cfg| Box::new(IdealEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: Vec::new
);

builtin_scheme!(
    TardisScheme, SchemeId::TARDIS, "TARDIS",
    "Tardis timestamp coherence: per-word read leases and write timestamps, no invalidations.",
    main: false,
    caps: SchemeCaps {
        needs_epoch_boundary: true,
        uses_compiler_marks: false,
        timestamp_bits: Some(storage::TARDIS_TS_BITS as u32),
    },
    storage: storage::tardis,
    build: |cfg| Box::new(TardisEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::tardis_invariants
);

builtin_scheme!(
    HybridScheme, SchemeId::HYBRID, "HYB",
    "Competitive hybrid update/invalidate: word updates until a per-line counter trips.",
    main: false,
    caps: SchemeCaps { needs_epoch_boundary: true, uses_compiler_marks: false, timestamp_bits: None },
    storage: storage::hybrid,
    build: |cfg| Box::new(HybridEngine::new(cfg)) as Box<dyn CoherenceEngine>,
    invariants: invariant::hybrid_invariants
);

/// The built-in schemes, in registration (and therefore table) order.
static BUILT_INS: [&dyn Scheme; 8] = [
    &BaseScheme,
    &ScScheme,
    &TpiScheme,
    &FullMapScheme,
    &LimitLessScheme,
    &IdealScheme,
    &TardisScheme,
    &HybridScheme,
];

static GLOBAL: OnceLock<SchemeRegistry> = OnceLock::new();

/// The process-wide registry holding all built-in schemes.
pub fn global() -> &'static SchemeRegistry {
    GLOBAL.get_or_init(|| {
        let mut r = SchemeRegistry::new();
        for s in BUILT_INS {
            r.register(s).expect("built-in scheme ids are unique");
        }
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_has_all_builtins_and_main_four() {
        let r = global();
        assert_eq!(r.all().len(), 8);
        assert_eq!(
            r.main_schemes(),
            vec![
                SchemeId::BASE,
                SchemeId::SC,
                SchemeId::TPI,
                SchemeId::FULL_MAP
            ]
        );
    }

    #[test]
    fn lookup_is_case_insensitive_over_id_and_label() {
        let r = global();
        assert_eq!(r.lookup("tpi").unwrap().label(), "TPI");
        assert_eq!(r.lookup("TPI").unwrap().id(), SchemeId::TPI);
        assert_eq!(r.lookup("hw").unwrap().id(), SchemeId::FULL_MAP);
        assert_eq!(r.lookup("Hw").unwrap().id(), SchemeId::FULL_MAP);
        assert_eq!(r.lookup("HYB").unwrap().id(), SchemeId::HYBRID);
        assert_eq!(r.lookup("Tardis").unwrap().label(), "TARDIS");
    }

    #[test]
    fn unknown_name_errors_with_known_list() {
        let Err(err) = global().lookup("mesi") else {
            panic!("lookup of unregistered name must fail");
        };
        match err {
            RegistryError::Unknown { name, known } => {
                assert_eq!(name, "mesi");
                assert!(known.contains(&"tpi"));
                assert!(known.contains(&"tardis"));
                assert_eq!(known.len(), 8);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_registration_errors() {
        let mut r = SchemeRegistry::new();
        r.register(&TpiScheme).unwrap();
        let err = r.register(&TpiScheme).unwrap_err();
        assert_eq!(err, RegistryError::Duplicate { id: SchemeId::TPI });
        // A different type with a clashing label is also rejected.
        struct FakeTpi;
        impl Scheme for FakeTpi {
            fn id(&self) -> SchemeId {
                SchemeId("tpi2")
            }
            fn label(&self) -> &'static str {
                "TPI"
            }
            fn description(&self) -> &'static str {
                ""
            }
            fn caps(&self) -> SchemeCaps {
                SchemeCaps::default()
            }
            fn storage(&self, _p: StorageParams) -> StorageOverhead {
                StorageOverhead::default()
            }
            fn build(&self, cfg: EngineConfig) -> Box<dyn CoherenceEngine> {
                Box::new(BaseEngine::new(cfg))
            }
        }
        static FAKE: FakeTpi = FakeTpi;
        assert!(matches!(
            r.register(&FAKE),
            Err(RegistryError::Duplicate { .. })
        ));
    }

    #[test]
    fn scheme_ids_are_distinct_and_resolve_labels() {
        assert_ne!(SchemeId::TARDIS, SchemeId::HYBRID);
        assert_eq!(SchemeId::TARDIS.as_str(), "tardis");
        assert_eq!(SchemeId::TARDIS.label(), "TARDIS");
        assert_eq!(SchemeId::FULL_MAP.to_string(), "HW");
    }

    #[test]
    fn storage_bits_per_word_metadata() {
        let r = global();
        let bits = |name: &str| r.lookup(name).unwrap().storage_bits_per_word();
        assert_eq!(bits("base"), 0.0);
        assert_eq!(bits("tpi"), 8.0);
        assert_eq!(bits("tardis"), 64.0);
        assert!((bits("hw") - 0.5).abs() < 1e-12);
        assert!((bits("hybrid") - 1.25).abs() < 1e-12);
    }
}
