//! Cache hardware models for the TPI coherence study.
//!
//! This crate models the node-cache hardware the paper's schemes require:
//!
//! * [`cache`] — a set-associative cache with per-word valid bits,
//!   per-word timetags, and per-line MSI state, serving TPI, SC, and the
//!   directory schemes alike; its lines live in one arena behind a flat
//!   way index, so a warm cache fills and evicts without allocating;
//! * [`timetag`] — the hardware epoch counter with the paper's two-phase
//!   invalidation discipline for recycling finite timetags (and the
//!   flush-on-wrap alternative, for the reset ablation);
//! * [`wbuffer`] — infinite write buffers for the write-through schemes,
//!   plain or organized-as-a-cache (redundant-write elimination).
//!
//! # Example
//!
//! ```
//! use tpi_cache::{Cache, CacheConfig, ResetStrategy, TagClock};
//! use tpi_mem::LineAddr;
//!
//! let mut clock = TagClock::new(8, ResetStrategy::TwoPhase);
//! let mut cache = Cache::new(CacheConfig::paper_default());
//! let (line, victim) = cache.install(LineAddr(42));
//! assert!(victim.is_none(), "an empty set displaces nothing");
//! line.set_word_valid(0, true);
//! line.set_timetag(0, clock.hw_tag());
//! clock.advance();
//! // Stamped one epoch ago: visible to a Time-Read of distance >= 1.
//! let l = cache.peek(LineAddr(42)).unwrap();
//! assert!(clock.fresh_within(l.timetag(0), 1));
//! assert!(!clock.fresh_within(l.timetag(0), 0));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod timetag;
pub mod wbuffer;

pub use cache::{Cache, CacheConfig, Evicted, Line, LineState};
pub use timetag::{ResetEvent, ResetStrategy, TagClock};
pub use wbuffer::{WriteBuffer, WriteBufferKind, WriteBufferStats, WritePolicy};
