//! The coherence schemes of the study, by name: one static table.
//!
//! Each scheme is one row of the table behind [`global()`]: a stable
//! [`SchemeId`], a table label, a description, a storage-cost model
//! (Figure 5), an engine factory and its `tpi-model` invariants. Every
//! consumer (the simulator, the experiment runner, the service wire
//! format, the command-line tools, the differential sweep) resolves
//! schemes by name through the table instead of matching on an enum, so
//! landing a new protocol means one engine module and one row here.
//!
//! The table holds the paper's four main schemes (BASE, SC, TPI, HW), the
//! LimitLess and IDEAL variants, and the two post-paper protocols this
//! repo adds for comparison — TARDIS (timestamp-lease coherence, Yu &
//! Devadas) and HYB (competitive update/invalidate, Dahlgren & Stenström).

use crate::hybrid::HybridEngine;
use crate::invariant::{self, ModelInvariant};
use crate::storage::{self, StorageOverhead, StorageParams};
use crate::tardis::TardisEngine;
use crate::{
    BaseEngine, CoherenceEngine, DirectoryEngine, EngineConfig, IdealEngine, ScEngine, TpiEngine,
};

/// Stable identifier of a scheme (lower-case, e.g. `"tpi"`).
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

    /// An arbitrary id, which resolves only if a table row carries it; use
    /// the associated constants for the schemes in the table.
    #[must_use]
    pub const fn new(id: &'static str) -> Self {
        SchemeId(id)
    }

    /// The id string (lower-case, stable across releases).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// Short table label ("TPI", "HW", ...), resolved through the scheme
    /// table; falls back to the raw id for an id outside it.
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

/// One row of the scheme table: identity, metadata, storage model, an
/// engine factory and the model checker's invariants.
///
/// See `DESIGN.md` ("Adding a coherence scheme") for the full contract,
/// including the staleness-oracle obligations a new scheme must meet.
pub struct Scheme {
    id: SchemeId,
    label: &'static str,
    description: &'static str,
    paper_main: bool,
    uses_compiler_marks: bool,
    storage: fn(StorageParams) -> StorageOverhead,
    build: fn(EngineConfig) -> Box<dyn CoherenceEngine>,
    invariants: fn() -> Vec<ModelInvariant>,
}

impl Scheme {
    /// Stable lower-case identifier (wire format, CLI `--scheme`).
    #[must_use]
    pub fn id(&self) -> SchemeId {
        self.id
    }

    /// Short table label (upper-case, e.g. "TPI").
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// One-line human description for `/v1/schemes` and docs.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Whether the scheme belongs to the paper's main four-way
    /// comparison tables (Figures 8-13).
    #[must_use]
    pub fn paper_main(&self) -> bool {
        self.paper_main
    }

    /// Whether the engine consumes the compiler's reference markings
    /// (Time-Read / cache-bypass); a mark-ignoring scheme gives the same
    /// result on traces that differ only in their marks.
    #[must_use]
    pub fn uses_compiler_marks(&self) -> bool {
        self.uses_compiler_marks
    }

    /// Bookkeeping storage cost under the Figure 5 model.
    #[must_use]
    pub fn storage(&self, p: StorageParams) -> StorageOverhead {
        (self.storage)(p)
    }

    /// Cache-side bookkeeping bits per cached data word at the paper's
    /// Figure 5 machine parameters (a single comparable scalar for
    /// `/v1/schemes` metadata).
    #[must_use]
    pub fn storage_bits_per_word(&self) -> f64 {
        let p = StorageParams::paper_figure5();
        let words = (p.line_words * p.cache_lines_per_node * p.processors) as f64;
        self.storage(p).sram_bits as f64 / words
    }

    /// Builds a fresh engine for one simulation run.
    #[must_use]
    pub fn build(&self, cfg: EngineConfig) -> Box<dyn CoherenceEngine> {
        (self.build)(cfg)
    }

    /// Scheme-specific safety invariants for `tpi-model`, checked against
    /// the live engine after every exploration step (and by `tpi-fuzz` on
    /// every post-run engine); see `DESIGN.md` ("Model checking the
    /// protocols").
    #[must_use]
    pub fn model_invariants(&self) -> Vec<ModelInvariant> {
        (self.invariants)()
    }
}

/// Errors from scheme lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegistryError {
    /// No scheme in the table matches the requested name.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// Ids of every scheme, in table order.
        known: Vec<&'static str>,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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
            RegistryError::Unknown { .. } => "bad_field",
        }
    }
}

impl std::error::Error for RegistryError {}

/// The scheme table, looked up by id or label (case-insensitive).
pub struct SchemeRegistry {
    schemes: [Scheme; 8],
}

impl SchemeRegistry {
    /// Resolves `name` against scheme ids and labels, case-insensitively.
    pub fn lookup(&self, name: &str) -> Result<&Scheme, RegistryError> {
        self.schemes
            .iter()
            .find(|s| name.eq_ignore_ascii_case(s.id.0) || name.eq_ignore_ascii_case(s.label))
            .ok_or_else(|| RegistryError::Unknown {
                name: name.to_string(),
                known: self.schemes.iter().map(|s| s.id.0).collect(),
            })
    }

    /// Resolves a [`SchemeId`] (exact, but ids are lower-case so this is
    /// the same match as [`SchemeRegistry::lookup`]).
    pub fn get(&self, id: SchemeId) -> Result<&Scheme, RegistryError> {
        self.lookup(id.as_str())
    }

    /// Every scheme, in table order.
    #[must_use]
    pub fn all(&self) -> &[Scheme] {
        &self.schemes
    }

    /// Ids of the schemes in the paper's main comparison
    /// ([`Scheme::paper_main`]), in table order.
    #[must_use]
    pub fn main_schemes(&self) -> Vec<SchemeId> {
        self.schemes
            .iter()
            .filter(|s| s.paper_main)
            .map(|s| s.id)
            .collect()
    }
}

/// No bookkeeping beyond the data cache.
fn no_storage(_: StorageParams) -> StorageOverhead {
    StorageOverhead::default()
}

/// The schemes, in table order.
static GLOBAL: SchemeRegistry = SchemeRegistry {
    schemes: [
        Scheme {
            id: SchemeId::BASE,
            label: "BASE",
            description: "Shared data is never cached; every shared access is a remote memory access.",
            paper_main: true,
            uses_compiler_marks: false,
            storage: no_storage,
            build: |cfg| Box::new(BaseEngine::new(cfg)),
            invariants: invariant::base_invariants,
        },
        Scheme {
            id: SchemeId::SC,
            label: "SC",
            description: "Software cache-bypass: compiler-marked potentially-stale loads always go to memory.",
            paper_main: true,
            uses_compiler_marks: true,
            storage: no_storage,
            build: |cfg| Box::new(ScEngine::new(cfg)),
            invariants: Vec::new,
        },
        Scheme {
            id: SchemeId::TPI,
            label: "TPI",
            description: "Two-phase invalidation: per-word timetags checked against compiler epoch distances.",
            paper_main: true,
            uses_compiler_marks: true,
            storage: storage::tpi,
            build: |cfg| Box::new(TpiEngine::new(cfg)),
            invariants: invariant::tpi_invariants,
        },
        Scheme {
            id: SchemeId::FULL_MAP,
            label: "HW",
            description: "Full-map directory: three-state write-back invalidation protocol.",
            paper_main: true,
            uses_compiler_marks: false,
            storage: storage::full_map,
            build: |cfg| Box::new(DirectoryEngine::full_map(cfg)),
            invariants: invariant::directory_invariants,
        },
        Scheme {
            id: SchemeId::LIMITLESS,
            label: "LL",
            description: "LimitLess directory: limited hardware pointers with a software trap on overflow.",
            paper_main: false,
            uses_compiler_marks: false,
            storage: storage::limitless_as_tabulated,
            build: |cfg| Box::new(DirectoryEngine::limitless(cfg)),
            invariants: invariant::directory_invariants,
        },
        Scheme {
            id: SchemeId::IDEAL,
            label: "IDEAL",
            description: "Perfect-coherence oracle: only necessary misses (lower bound, not a real protocol).",
            paper_main: false,
            uses_compiler_marks: false,
            storage: no_storage,
            build: |cfg| Box::new(IdealEngine::new(cfg)),
            invariants: Vec::new,
        },
        Scheme {
            id: SchemeId::TARDIS,
            label: "TARDIS",
            description: "Tardis timestamp coherence: per-word read leases and write timestamps, no invalidations.",
            paper_main: false,
            uses_compiler_marks: false,
            storage: storage::tardis,
            build: |cfg| Box::new(TardisEngine::new(cfg)),
            invariants: invariant::tardis_invariants,
        },
        Scheme {
            id: SchemeId::HYBRID,
            label: "HYB",
            description: "Competitive hybrid update/invalidate: word updates until a per-line counter trips.",
            paper_main: false,
            uses_compiler_marks: false,
            storage: storage::hybrid,
            build: |cfg| Box::new(HybridEngine::new(cfg)),
            invariants: invariant::hybrid_invariants,
        },
    ],
};

/// The scheme table.
#[must_use]
pub fn global() -> &'static SchemeRegistry {
    &GLOBAL
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
        let RegistryError::Unknown { name, known } = err;
        assert_eq!(name, "mesi");
        assert!(known.contains(&"tpi"));
        assert!(known.contains(&"tardis"));
        assert_eq!(known.len(), 8);
    }

    #[test]
    fn ids_and_labels_are_unique_across_the_table() {
        let all = global().all();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                let (a_id, b_id) = (a.id().as_str(), b.id().as_str());
                if i != j {
                    assert!(!a_id.eq_ignore_ascii_case(b_id), "{a_id} twice");
                    assert!(!a.label().eq_ignore_ascii_case(b.label()), "{a_id}, {b_id}");
                }
                // An id may spell its own row's label, never another's:
                // lookup would then resolve one name to two schemes.
                assert!(
                    i == j || !a_id.eq_ignore_ascii_case(b.label()),
                    "id {a_id} is the label of {b_id}"
                );
            }
        }
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
