//! Canonical report tables built from experiment results.
//!
//! The `repro` harness, the `tpi-run` tool and the examples all need the
//! same handful of tables; this module is the single implementation so
//! downstream users get them too.

use crate::experiment::ExperimentResult;
use crate::tables::{f, pct, Table};
use tpi_proto::MissClass;

/// One row per scheme: cycles, miss rate, latency, traffic, lock waits.
#[must_use]
pub fn scheme_comparison(title: impl Into<String>, rows: &[(&str, &ExperimentResult)]) -> Table {
    let mut t = Table::new(title);
    t.headers([
        "scheme",
        "cycles",
        "miss rate",
        "avg miss lat",
        "net words",
        "lock waits",
    ]);
    for (label, r) in rows {
        t.row([
            (*label).to_string(),
            r.sim.total_cycles.to_string(),
            pct(r.sim.miss_rate()),
            f(r.sim.avg_miss_latency(), 1),
            r.sim.traffic.total_words().to_string(),
            r.sim.lock_wait_cycles.to_string(),
        ]);
    }
    t
}

/// Read-miss breakdown by cause, as percentages of all read misses.
#[must_use]
pub fn miss_classes(title: impl Into<String>, r: &ExperimentResult) -> Table {
    let mut t = Table::new(title);
    t.headers(["cause", "misses", "share"]);
    let total = r.sim.agg.read_misses().max(1) as f64;
    for class in MissClass::ALL {
        let n = r.sim.agg.misses(class);
        if n > 0 {
            t.row([class.to_string(), n.to_string(), pct(n as f64 / total)]);
        }
    }
    t
}

/// The arrays responsible for the most read misses (descending).
#[must_use]
pub fn hot_arrays(title: impl Into<String>, r: &ExperimentResult, top: usize) -> Table {
    let mut t = Table::new(title);
    t.headers(["array", "misses", "share"]);
    let total = r.sim.agg.read_misses().max(1) as f64;
    for (name, n) in r.sim.miss_by_array.iter().take(top) {
        t.row([name.clone(), n.to_string(), pct(*n as f64 / total)]);
    }
    t
}

/// Compiler-marking summary: how many reads were marked and at what
/// distances.
#[must_use]
pub fn marking_summary(title: impl Into<String>, r: &ExperimentResult) -> Table {
    let mut t = Table::new(title);
    t.headers(["metric", "value"]);
    t.row([
        "shared read sites".to_string(),
        r.marking.shared_reads.to_string(),
    ]);
    t.row([
        "marked (potentially stale)".to_string(),
        r.marking.marked.to_string(),
    ]);
    t.row([
        "plain (never stale)".to_string(),
        r.marking.plain.to_string(),
    ]);
    t.row([
        "  of which covered".to_string(),
        r.marking.covered.to_string(),
    ]);
    for (d, n) in &r.marking.distance_histogram {
        t.row([format!("  distance {d}"), n.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_kernel, ExperimentConfig};
    use tpi_proto::SchemeId;
    use tpi_workloads::{Kernel, Scale};

    fn result(scheme: SchemeId) -> ExperimentResult {
        let cfg = ExperimentConfig::builder().scheme(scheme).build().unwrap();
        run_kernel(Kernel::Arc2d, Scale::Test, &cfg).expect("runs")
    }

    #[test]
    fn all_reports_render() {
        let tpi = result(SchemeId::TPI);
        let hw = result(SchemeId::FULL_MAP);
        let cmp = scheme_comparison("cmp", &[("TPI", &tpi), ("HW", &hw)]);
        assert_eq!(cmp.len(), 2);
        let mc = miss_classes("classes", &tpi);
        assert!(!mc.is_empty());
        let hot = hot_arrays("hot", &tpi, 4);
        assert!(hot.len() >= 2, "ARC2D misses on Q and R");
        let ms = marking_summary("marking", &tpi);
        assert!(ms.len() >= 4);
        // Everything renders without panicking.
        for t in [cmp, mc, hot, ms] {
            assert!(t.to_string().contains("##"));
        }
    }

    #[test]
    fn miss_class_shares_sum_to_one() {
        let r = result(SchemeId::TPI);
        let total: u64 = MissClass::ALL.iter().map(|&c| r.sim.agg.misses(c)).sum();
        assert_eq!(total, r.sim.agg.read_misses());
    }
}
