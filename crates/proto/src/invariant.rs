//! Scheme-specific safety invariants for the `tpi-model` model checker,
//! and the sabotage catalogue that proves the checkers catch each one.
//!
//! Every [`crate::Scheme`] may supply a catalog of [`ModelInvariant`]s
//! through [`crate::Scheme::model_invariants`]. The checker calls each
//! invariant's `check` function against the live engine after every
//! exploration step and every epoch boundary; a check downcasts the
//! `dyn CoherenceEngine` back to its concrete type (via
//! [`CoherenceEngine::as_any`]) and inspects the protocol bookkeeping the
//! trait interface deliberately hides — directories, timetags, leases,
//! sharer masks.
//!
//! The catalogs here cover every scheme in the table; see `DESIGN.md`
//! ("Model checking the protocols") for what a new scheme must supply.
//! Each [`Sabotage`] hand-breaks one engine through its debug hooks:
//! `tpi-model`'s seeded tests and `tpi-fuzz --sabotage` both draw on it.

use tpi_mem::WordAddr;

use crate::base::BaseEngine;
use crate::fullmap::DirectoryEngine;
use crate::hybrid::HybridEngine;
use crate::registry::SchemeId;
use crate::tardis::TardisEngine;
use crate::tpi::TpiEngine;
use crate::CoherenceEngine;

/// One scheme-specific safety invariant checked after every model step.
#[derive(Debug, Clone, Copy)]
pub struct ModelInvariant {
    /// Stable kebab-case name, quoted in counterexample traces.
    pub name: &'static str,
    /// One-line statement of the property.
    pub description: &'static str,
    /// Checks the invariant against a live engine. `Err` carries a
    /// human-readable description of the violation.
    pub check: fn(&dyn CoherenceEngine) -> Result<(), String>,
}

/// Downcasts `engine` to `T`, or explains which type the invariant
/// expected — an invariant paired with the wrong scheme is itself a bug
/// worth surfacing, not a silent pass.
fn downcast<T: 'static>(engine: &dyn CoherenceEngine) -> Result<&T, String> {
    engine.as_any().downcast_ref::<T>().ok_or_else(|| {
        format!(
            "invariant expected a {} engine but got {}",
            std::any::type_name::<T>(),
            engine.name()
        )
    })
}

/// Invariants of the BASE (uncached-shared) engine.
#[must_use]
pub fn base_invariants() -> Vec<ModelInvariant> {
    vec![ModelInvariant {
        name: "base-no-shared-lines",
        description: "no cache ever holds a valid word of the shared segment",
        check: |e| downcast::<BaseEngine>(e)?.check_no_shared_lines(),
    }]
}

/// Invariants of the TPI (two-phase invalidation) engine.
#[must_use]
pub fn tpi_invariants() -> Vec<ModelInvariant> {
    vec![ModelInvariant {
        name: "tpi-phase-discipline",
        description: "phase resets never preserve an out-of-phase timetag",
        check: |e| downcast::<TpiEngine>(e)?.check_phase_discipline(),
    }]
}

/// Invariants of the directory engines (full-map HW and LimitLess).
#[must_use]
pub fn directory_invariants() -> Vec<ModelInvariant> {
    vec![ModelInvariant {
        name: "dir-consistency",
        description: "directory entries and cached copies match exactly \
                      (owner exclusive, presence bits shared, no orphans)",
        check: |e| downcast::<DirectoryEngine>(e)?.verify_invariants(),
    }]
}

/// Invariants of the Tardis timestamp-lease engine.
#[must_use]
pub fn tardis_invariants() -> Vec<ModelInvariant> {
    vec![
        ModelInvariant {
            name: "tardis-stale-copy-lease",
            description: "a stale cached copy is leased strictly below the \
                          home write timestamp",
            check: |e| downcast::<TardisEngine>(e)?.check_stale_copy_leases(),
        },
        ModelInvariant {
            name: "tardis-lease-grant",
            description: "every cached lease is bounded by the home's \
                          max(rts, wts)",
            check: |e| downcast::<TardisEngine>(e)?.check_lease_grants(),
        },
    ]
}

/// Invariants of the hybrid update/invalidate engine.
#[must_use]
pub fn hybrid_invariants() -> Vec<ModelInvariant> {
    vec![
        ModelInvariant {
            name: "hybrid-sharer-mask",
            description: "every cache holding a valid copy has its \
                          directory presence bit set",
            check: |e| downcast::<HybridEngine>(e)?.check_sharer_mask(),
        },
        ModelInvariant {
            name: "hybrid-word-version",
            description: "no cached word runs ahead of write-through memory",
            check: |e| downcast::<HybridEngine>(e)?.check_word_versions(),
        },
    ]
}

/// A named way of hand-breaking a live engine through its debug hooks.
/// `tpi-model` applies it after every step and `tpi-fuzz` at every epoch
/// boundary; a checker run with a sabotaged engine must report a
/// violation — that is the checkers' own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// TPI stops performing two-phase timetag resets.
    TpiSkipResets,
    /// The full-map directory forgets processor 0's sharer bit for word 0.
    FullmapDropSharer,
    /// The LimitLESS directory forgets the same sharer bit.
    LimitlessDropSharer,
    /// BASE illegally caches shared word 0.
    BaseCacheShared,
    /// The hybrid directory forgets processor 0's sharer bit for word 0.
    HybridDropSharer,
    /// Tardis rewinds word 0's write timestamp.
    TardisRewindWts,
    /// The full-map directory claims to be order-insensitive, so the heap
    /// replay runs each stream straight through although its sharer state
    /// is order-sensitive.
    FullmapClaimsOrderInsensitive,
    /// The full-map directory declares every access commuting, so the heap
    /// replay lets each processor run ahead past the directory state
    /// others depend on.
    FullmapCommutesAlways,
}

impl Sabotage {
    /// Every hook, in a stable order.
    pub const ALL: [Sabotage; 8] = [
        Sabotage::TpiSkipResets,
        Sabotage::FullmapDropSharer,
        Sabotage::LimitlessDropSharer,
        Sabotage::BaseCacheShared,
        Sabotage::HybridDropSharer,
        Sabotage::TardisRewindWts,
        Sabotage::FullmapClaimsOrderInsensitive,
        Sabotage::FullmapCommutesAlways,
    ];

    /// Stable name (accepted by `tpi-fuzz --sabotage`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Sabotage::TpiSkipResets => "tpi-skip-resets",
            Sabotage::FullmapDropSharer => "hw-drop-sharer",
            Sabotage::LimitlessDropSharer => "ll-drop-sharer",
            Sabotage::BaseCacheShared => "base-cache-shared",
            Sabotage::HybridDropSharer => "hybrid-drop-sharer",
            Sabotage::TardisRewindWts => "tardis-rewind-wts",
            Sabotage::FullmapClaimsOrderInsensitive => "hw-claims-order-insensitive",
            Sabotage::FullmapCommutesAlways => "hw-commutes-always",
        }
    }

    /// The scheme whose engine this hook breaks.
    #[must_use]
    pub fn target(self) -> SchemeId {
        match self {
            Sabotage::TpiSkipResets => SchemeId::TPI,
            Sabotage::FullmapDropSharer
            | Sabotage::FullmapClaimsOrderInsensitive
            | Sabotage::FullmapCommutesAlways => SchemeId::FULL_MAP,
            Sabotage::LimitlessDropSharer => SchemeId::LIMITLESS,
            Sabotage::BaseCacheShared => SchemeId::BASE,
            Sabotage::HybridDropSharer => SchemeId::HYBRID,
            Sabotage::TardisRewindWts => SchemeId::TARDIS,
        }
    }

    /// Resolves a hook by its stable name.
    ///
    /// # Errors
    ///
    /// Returns the list of known hook names.
    pub fn parse(name: &str) -> Result<Sabotage, String> {
        Sabotage::ALL
            .into_iter()
            .find(|s| s.label() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Sabotage::ALL.into_iter().map(Sabotage::label).collect();
                format!("unknown sabotage {name:?} (known: {})", known.join(", "))
            })
    }

    /// Breaks `engine` in place (no-op if it is not the targeted type).
    pub fn apply(self, engine: &mut dyn CoherenceEngine) {
        let any = engine.as_any_mut();
        match self {
            Sabotage::TpiSkipResets => {
                if let Some(e) = any.downcast_mut::<TpiEngine>() {
                    e.debug_skip_resets();
                }
            }
            Sabotage::FullmapDropSharer | Sabotage::LimitlessDropSharer => {
                if let Some(e) = any.downcast_mut::<DirectoryEngine>() {
                    e.debug_drop_sharer_bit(0, WordAddr(0));
                }
            }
            Sabotage::BaseCacheShared => {
                if let Some(e) = any.downcast_mut::<BaseEngine>() {
                    e.debug_cache_shared_word(WordAddr(0));
                }
            }
            Sabotage::HybridDropSharer => {
                if let Some(e) = any.downcast_mut::<HybridEngine>() {
                    e.debug_drop_sharer_bit(0, WordAddr(0));
                }
            }
            Sabotage::TardisRewindWts => {
                if let Some(e) = any.downcast_mut::<TardisEngine>() {
                    e.debug_rewind_wts(WordAddr(0));
                }
            }
            Sabotage::FullmapClaimsOrderInsensitive => {
                if let Some(e) = any.downcast_mut::<DirectoryEngine>() {
                    e.debug_claim_order_insensitive();
                }
            }
            Sabotage::FullmapCommutesAlways => {
                if let Some(e) = any.downcast_mut::<DirectoryEngine>() {
                    e.debug_commute_always();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::global;
    use crate::{build_engine, EngineConfig, SchemeId};

    #[test]
    fn builtin_invariants_pass_on_fresh_engines() {
        for scheme in global().all() {
            let engine = build_engine(scheme.id(), EngineConfig::paper_default(1024));
            for inv in scheme.model_invariants() {
                (inv.check)(engine.as_ref())
                    .unwrap_or_else(|e| panic!("{} {}: {e}", scheme.id(), inv.name));
            }
        }
    }

    #[test]
    fn invariant_names_are_stable_and_scheme_prefixed() {
        let expect = [
            (SchemeId::BASE, vec!["base-no-shared-lines"]),
            (SchemeId::SC, vec![]),
            (SchemeId::TPI, vec!["tpi-phase-discipline"]),
            (SchemeId::FULL_MAP, vec!["dir-consistency"]),
            (SchemeId::LIMITLESS, vec!["dir-consistency"]),
            (SchemeId::IDEAL, vec![]),
            (
                SchemeId::TARDIS,
                vec!["tardis-stale-copy-lease", "tardis-lease-grant"],
            ),
            (
                SchemeId::HYBRID,
                vec!["hybrid-sharer-mask", "hybrid-word-version"],
            ),
        ];
        for (id, names) in expect {
            let got: Vec<&str> = global()
                .get(id)
                .unwrap()
                .model_invariants()
                .iter()
                .map(|i| i.name)
                .collect();
            assert_eq!(got, names, "{id}");
        }
    }

    #[test]
    fn mismatched_downcast_reports_instead_of_passing() {
        let engine = build_engine(SchemeId::SC, EngineConfig::paper_default(1024));
        let inv = &tpi_invariants()[0];
        let err = (inv.check)(engine.as_ref()).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }
}
