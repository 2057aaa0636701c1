//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each `eN` function reproduces one experiment from the per-experiment
//! index in `DESIGN.md`; the `repro` binary runs them at paper scale, or
//! at test scale with `--test`. Experiment ids:
//!
//! | id  | reproduces |
//! |-----|------------|
//! | e1  | Figure 5 — storage overhead comparison |
//! | e2  | Figure 8 — simulation parameters |
//! | e3  | Figure 11 — miss rates per scheme per benchmark |
//! | e4  | miss classification (necessary vs unnecessary misses) |
//! | e5  | average miss latency, TPI vs HW at 16 B / 64 B lines |
//! | e6  | network traffic breakdown (read / write / coherence) |
//! | e7  | execution time comparison across the four schemes |
//! | e8  | timetag-width sensitivity |
//! | e9  | line-size sensitivity |
//! | e10 | cache-size sensitivity |
//! | e11 | two-phase reset vs full-flush ablation |
//! | e12 | write-buffer-organized-as-cache ablation |
//! | e13 | scheduling policy and task migration (Section 5) |
//! | e14 | processor-count scaling |
//! | e15 | compiler optimization-level ablation (naive/intra/full) |
//! | e16 | critical sections & lock serialization (Section 5, MDG) |
//! | e17 | verified-hit re-stamp ablation |
//! | e18 | write-through vs write-back-at-boundary policy ablation |
//! | e19 | coherence overhead vs perfect-coherence oracle + epoch timeline |
//! | e20 | doacross post/wait pipelining: granularity and schedule sweep |
//! | e21 | one-level vs off-the-shelf two-level TPI (Section 3) |
//! | e22 | coherence-miss fetch granularity (line vs word) |

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use experiments::{run_experiment, ExperimentOutput, ALL_IDS};
