//! `tpi-prof`: a zero-dependency stage profiler for the experiment engine.
//!
//! The paper's argument is quantitative, so the harness that reproduces it
//! must be measurable too. This module provides the profiling layer used by
//! [`Runner`](crate::Runner): scoped wall-clock stage timers, monotonic
//! counters, and a deterministic [`ProfileReport`] that `repro --timing`,
//! `tpi-run --profile`, the `/metrics` endpoint of `tpi-serve` and the
//! repository benchmark (`tpi-perf`) all read.
//!
//! # Design
//!
//! * **Zero dependencies.** Like the rest of the workspace the profiler is
//!   std-only: `Instant` for wall time, a `Mutex<BTreeMap>` for aggregation.
//!   No `tracing` — the repo builds offline.
//! * **Scoped timers with nesting.** [`Profiler::scope`] returns an RAII
//!   guard; nested scopes compose their names into `/`-separated paths
//!   (`"simulate"` inside `"grid"` records as `"grid/simulate"`). The
//!   nesting stack is thread-local, so concurrent worker threads profile
//!   independently and aggregate into the same report.
//! * **Cheap enough to leave on.** One `Instant::now()` pair plus one map
//!   update per scope. Scopes are placed at *stage* granularity (per
//!   artifact build, per simulated cell) — never per event — so overhead is
//!   nanoseconds against milliseconds of work. The measured overhead is
//!   documented in `DESIGN.md` (§ Profiling & performance).
//! * **Overflow-safe.** All accumulation is saturating: a pathological
//!   accumulated duration pins at `u64::MAX` nanoseconds instead of
//!   wrapping to a small number and corrupting the report.
//! * **Deterministic reports.** Stages sort by total wall time descending,
//!   ties broken by path; counters sort by name. Two reports over the same
//!   set of stage names always list them in a stable order.
//!
//! # Example
//!
//! ```
//! use tpi::prof::Profiler;
//!
//! let prof = Profiler::new();
//! {
//!     let _outer = prof.scope("prepare");
//!     let _inner = prof.scope("interp"); // records as "prepare/interp"
//!     prof.incr("events", 128);
//! }
//! let report = prof.report();
//! assert_eq!(report.stages.len(), 2);
//! assert_eq!(report.counter("events"), 128);
//! ```

use crate::sync::lock_unpoisoned;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Per-thread stack of active scope names; composed into the full
    /// `/`-separated path when a scope closes.
    static SCOPE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregated totals for one stage path.
#[derive(Debug, Clone, Copy, Default)]
struct StageAgg {
    calls: u64,
    nanos: u64,
}

#[derive(Debug, Default)]
struct ProfState {
    stages: BTreeMap<String, StageAgg>,
    counters: BTreeMap<String, u64>,
}

/// Aggregating stage profiler. Shared by reference across worker threads;
/// all methods take `&self`.
#[derive(Debug, Default)]
pub struct Profiler {
    state: Mutex<ProfState>,
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Opens a named timing scope; the returned guard records the elapsed
    /// wall time (and one call) when dropped.
    ///
    /// Scopes opened while another scope is active *on the same thread*
    /// nest: their recorded path is `outer/inner`. The guard is `!Send` —
    /// it must be dropped on the thread that opened it.
    #[must_use = "the scope is timed until the guard is dropped"]
    pub fn scope(&self, name: &'static str) -> ScopeGuard<'_> {
        SCOPE_STACK.with(|s| s.borrow_mut().push(name));
        ScopeGuard {
            prof: self,
            start: Instant::now(),
            armed: true,
            _not_send: PhantomData,
        }
    }

    /// Adds `nanos` of wall time (and one call) to the stage at `path`,
    /// ignoring the thread-local nesting stack.
    ///
    /// This is how the runner attributes time measured *inside* the lower
    /// layers (the interpreter and the simulator self-report per-phase
    /// nanoseconds on their results) to stable report paths.
    pub fn add_nanos(&self, path: &str, nanos: u64) {
        self.add(path, nanos, 1);
    }

    /// Adds `nanos` and `calls` to the stage at `path` in one update.
    pub fn add(&self, path: &str, nanos: u64, calls: u64) {
        let mut st = lock_unpoisoned(&self.state);
        let agg = st.stages.entry(path.to_string()).or_default();
        agg.nanos = agg.nanos.saturating_add(nanos);
        agg.calls = agg.calls.saturating_add(calls);
    }

    /// Increments the monotonic counter `name` by `n` (saturating).
    pub fn incr(&self, name: &str, n: u64) {
        let mut st = lock_unpoisoned(&self.state);
        let c = st.counters.entry(name.to_string()).or_default();
        *c = c.saturating_add(n);
    }

    /// Snapshots the current totals as a deterministic [`ProfileReport`].
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        let st = lock_unpoisoned(&self.state);
        let mut stages: Vec<StageProfile> = st
            .stages
            .iter()
            .map(|(path, agg)| StageProfile {
                path: path.clone(),
                calls: agg.calls,
                nanos: agg.nanos,
            })
            .collect();
        // Hottest first; ties broken by path so the order is total.
        stages.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.path.cmp(&b.path)));
        let counters = st.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
        ProfileReport { stages, counters }
    }

    /// Discards all recorded stages and counters.
    pub fn reset(&self) {
        let mut st = lock_unpoisoned(&self.state);
        st.stages.clear();
        st.counters.clear();
    }

    fn close_scope(&self, start: Instant) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let path = SCOPE_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        self.add(&path, nanos, 1);
    }
}

/// RAII guard for one open [`Profiler::scope`]; records on drop.
#[derive(Debug)]
pub struct ScopeGuard<'p> {
    prof: &'p Profiler,
    start: Instant,
    armed: bool,
    /// Scope guards pop a thread-local stack, so moving one to another
    /// thread would corrupt both threads' paths; `*mut ()` makes the guard
    /// `!Send` at zero cost.
    _not_send: PhantomData<*mut ()>,
}

impl ScopeGuard<'_> {
    /// Closes the scope now, recording elapsed time, instead of at end of
    /// block.
    pub fn finish(mut self) {
        self.armed = false;
        self.prof.close_scope(self.start);
    }
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.prof.close_scope(self.start);
        }
    }
}

/// One stage's totals inside a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfile {
    /// `/`-separated stage path, e.g. `"simulate/replay"`.
    pub path: String,
    /// Number of times the stage ran.
    pub calls: u64,
    /// Total wall time across all calls, in nanoseconds (saturating).
    pub nanos: u64,
}

impl StageProfile {
    /// Nesting depth: `1` for a top-level stage, `2` for `a/b`, …
    #[must_use]
    pub fn depth(&self) -> usize {
        self.path.split('/').count()
    }

    /// Mean wall time per call, in nanoseconds.
    #[must_use]
    pub fn mean_nanos(&self) -> u64 {
        self.nanos.checked_div(self.calls).unwrap_or(0)
    }
}

/// Deterministic snapshot of a [`Profiler`]: stages hottest-first plus
/// name-sorted counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Stage totals, sorted by wall time descending then path.
    pub stages: Vec<StageProfile>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl ProfileReport {
    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.counters.is_empty()
    }

    /// The stage with the most total wall time, if any.
    #[must_use]
    pub fn hottest(&self) -> Option<&StageProfile> {
        self.stages.first()
    }

    /// Totals for the stage at `path`, if recorded.
    #[must_use]
    pub fn stage(&self, path: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.path == path)
    }

    /// Value of counter `name` (0 if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of wall time over *top-level* stages only, in nanoseconds.
    ///
    /// Nested stages (`a/b`) overlap their parents (`a`), so summing every
    /// stage would double-count; the top-level sum is the report's honest
    /// account of profiled wall time.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.depth() == 1)
            .fold(0u64, |acc, s| acc.saturating_add(s.nanos))
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`/`µs`/`ms`/`s`).
#[must_use]
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_nanos();
        writeln!(
            f,
            "{:<28} {:>8} {:>10} {:>10} {:>7}",
            "stage", "calls", "total", "mean", "share"
        )?;
        for s in &self.stages {
            let share = if total == 0 || s.depth() != 1 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * s.nanos as f64 / total as f64)
            };
            writeln!(
                f,
                "{:<28} {:>8} {:>10} {:>10} {:>7}",
                s.path,
                s.calls,
                fmt_nanos(s.nanos),
                fmt_nanos(s.mean_nanos()),
                share
            )?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "{:<28} {:>8}", "counter", "value")?;
            for (name, v) in &self.counters {
                writeln!(f, "{name:<28} {v:>8}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn scope_records_call_and_time() {
        let p = Profiler::new();
        {
            let _g = p.scope("work");
            std::thread::sleep(Duration::from_millis(2));
        }
        let r = p.report();
        let s = r.stage("work").expect("stage recorded");
        assert_eq!(s.calls, 1);
        assert!(s.nanos >= 1_000_000, "slept 2ms but recorded {}ns", s.nanos);
    }

    #[test]
    fn nested_scopes_compose_paths() {
        let p = Profiler::new();
        {
            let _outer = p.scope("outer");
            {
                let _inner = p.scope("inner");
            }
            {
                let _inner = p.scope("inner");
            }
        }
        let r = p.report();
        assert!(r.stage("outer").is_some());
        let inner = r.stage("outer/inner").expect("nested path");
        assert_eq!(inner.calls, 2);
        assert!(r.stage("inner").is_none(), "inner must not appear bare");
    }

    #[test]
    fn sibling_scopes_do_not_nest() {
        let p = Profiler::new();
        {
            let _a = p.scope("a");
        }
        {
            let _b = p.scope("b");
        }
        let r = p.report();
        assert!(r.stage("a").is_some());
        assert!(r.stage("b").is_some());
        assert!(r.stage("a/b").is_none());
    }

    #[test]
    fn deep_nesting_and_finish() {
        let p = Profiler::new();
        let g1 = p.scope("l1");
        let g2 = p.scope("l2");
        let g3 = p.scope("l3");
        g3.finish();
        g2.finish();
        g1.finish();
        let r = p.report();
        assert!(r.stage("l1/l2/l3").is_some());
        assert_eq!(r.stages.len(), 3);
    }

    #[test]
    fn threads_have_independent_stacks() {
        let p = Profiler::new();
        let _main = p.scope("main");
        std::thread::scope(|s| {
            s.spawn(|| {
                // A worker's scope must NOT nest under the main thread's
                // open "main" scope.
                let _w = p.scope("worker");
            });
        });
        drop(_main);
        let r = p.report();
        assert!(r.stage("worker").is_some());
        assert!(r.stage("main/worker").is_none());
    }

    #[test]
    fn accumulation_saturates_instead_of_wrapping() {
        let p = Profiler::new();
        p.add_nanos("big", u64::MAX - 5);
        p.add_nanos("big", 1_000_000);
        let s = p.report();
        let big = s.stage("big").unwrap();
        assert_eq!(big.nanos, u64::MAX, "must saturate, not wrap");
        assert_eq!(big.calls, 2);

        p.incr("c", u64::MAX);
        p.incr("c", 7);
        assert_eq!(p.report().counter("c"), u64::MAX);
    }

    #[test]
    fn total_counts_only_top_level() {
        let p = Profiler::new();
        p.add_nanos("a", 100);
        p.add_nanos("a/sub", 90);
        p.add_nanos("b", 50);
        let r = p.report();
        assert_eq!(r.total_nanos(), 150, "nested stage must not double-count");
    }

    #[test]
    fn report_is_sorted_hottest_first_and_deterministic() {
        let p = Profiler::new();
        p.add_nanos("cold", 10);
        p.add_nanos("hot", 1000);
        p.add_nanos("warm", 500);
        p.add("tied-b", 10, 1);
        p.add("tied-a", 10, 1);
        let r = p.report();
        let order: Vec<&str> = r.stages.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(order, ["hot", "warm", "cold", "tied-a", "tied-b"]);
        assert_eq!(r.hottest().unwrap().path, "hot");
        assert_eq!(p.report(), r, "same state must snapshot identically");
    }

    #[test]
    fn counters_sorted_and_missing_reads_zero() {
        let p = Profiler::new();
        p.incr("zz", 2);
        p.incr("aa", 1);
        p.incr("zz", 3);
        let r = p.report();
        assert_eq!(
            r.counters,
            vec![("aa".to_string(), 1), ("zz".to_string(), 5)]
        );
        assert_eq!(r.counter("nope"), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let p = Profiler::new();
        p.add_nanos("s", 5);
        p.incr("c", 5);
        p.reset();
        assert!(p.report().is_empty());
    }

    #[test]
    fn display_renders_stages_and_counters() {
        let p = Profiler::new();
        p.add("sim", 2_500_000, 3);
        p.add_nanos("sim/replay", 2_000_000);
        p.incr("events", 42);
        let text = p.report().to_string();
        assert!(text.contains("sim"));
        assert!(text.contains("sim/replay"));
        assert!(text.contains("events"));
        assert!(text.contains("100.0%"), "top-level share: {text}");
        assert!(text.contains('-'), "nested stages show no share");
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(900), "900ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_200_000_000), "3.20s");
    }

    #[test]
    fn concurrent_aggregation_is_complete() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        p.add_nanos("shared", 1);
                        p.incr("n", 1);
                    }
                });
            }
        });
        let r = p.report();
        assert_eq!(r.stage("shared").unwrap().calls, 400);
        assert_eq!(r.stage("shared").unwrap().nanos, 400);
        assert_eq!(r.counter("n"), 400);
    }
}
