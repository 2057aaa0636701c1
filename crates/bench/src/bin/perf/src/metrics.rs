//! The benchmark's metric catalogue and the result line it prints.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two in step.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (per-layer: none).
    pub bound: Option<f64>,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, in report order. Each workload reports all of
/// them; README.md says what each one means on each workload. Every time
/// but `serve`'s `hot_rps` is CPU time at the host gauge's reference speed
/// ([`crate::gauge`]).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("peak_rss_mb", "MB", Lower, Some(0.15)),
        def("cells_per_s", "cells/s", Higher, Some(0.25)),
        def("cell_ms_p50", "ms", Lower, Some(0.25)),
        def("cell_ms_p90", "ms", Lower, Some(0.25)),
        def("hot_ms_p50", "ms", Lower, Some(0.25)),
        def("hot_ms_p90", "ms", Lower, Some(0.25)),
        def("hot_rps", "1/s", Higher, Some(0.25)),
    ]
}

/// The registry schemes, by id, in the order per-scheme metrics appear.
pub const SCHEMES: [&str; 8] = ["base", "sc", "tpi", "hw", "ll", "ideal", "tardis", "hybrid"];

/// Every `SimResult.host.ops` counter an engine reports.
pub const OP_COUNTERS: [&str; 8] = [
    "tpi_tag_checks",
    "tpi_fills",
    "tpi_restamps",
    "tpi_version_bumps",
    "tardis_lease_grants",
    "tardis_lease_renewals",
    "hybrid_updates_sent",
    "hybrid_invals_sent",
];

/// Every per-layer metric, in report order: what the traced run prints.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("workloads.build_ms", "ms", Lower, None),
        def("compiler.mark_ms", "ms", Lower, None),
        def("trace.interp_ms", "ms", Lower, None),
        def("trace.ns_per_event", "ns", Lower, None),
        def("trace.events", "count", Lower, None),
        def("trace.epochs", "count", Lower, None),
    ];
    for s in SCHEMES {
        v.push(def(format!("proto.{s}.ns_per_access"), "ns", Lower, None));
    }
    for op in OP_COUNTERS {
        v.push(def(format!("proto.{op}"), "count", Lower, None));
    }
    for s in SCHEMES {
        v.push(def(format!("sim.{s}.ns_per_event"), "ns", Lower, None));
        v.push(def(format!("sim.{s}.loop_ns_per_event"), "ns", Lower, None));
    }
    v.extend([
        def("sim.replay_ms", "ms", Lower, None),
        def("sim.boundary_ms", "ms", Lower, None),
        def("sim.events", "count", Lower, None),
    ]);
    for s in ["tpi", "hw"] {
        for exec in ["inline", "threads2"] {
            v.push(def(
                format!("sim.sharded.{s}.{exec}_speedup"),
                "x",
                Higher,
                None,
            ));
        }
    }
    v.extend([
        def("core.trace_hit_ratio", "fraction", Higher, None),
        def("core.marking_hit_ratio", "fraction", Higher, None),
        def("core.orchestration_ms", "ms", Lower, None),
        def("core.worker_busy_ratio", "fraction", Higher, None),
        def("serve.json.parse_us", "us", Lower, None),
        def("serve.wire.plan_us", "us", Lower, None),
        def("serve.wire.render_us", "us", Lower, None),
        def("serve.http.write_response_us", "us", Lower, None),
        def("serve.disk.put_ms", "ms", Lower, None),
        def("serve.disk.get_us", "us", Lower, None),
        def("serve.compute_ms", "ms", Lower, None),
        def("serve.replica.hot_p50_ms", "ms", Lower, None),
        def("serve.replica.healthz_p50_ms", "ms", Lower, None),
        def("serve.router.forward_ms", "ms", Lower, None),
        def("serve.unexplained_hot_ms", "ms", Lower, None),
        def("serve.open.hot_p50_ms", "ms", Lower, None),
        def("serve.open.hot_p95_ms", "ms", Lower, None),
        def("serve.client.lateness_p95_ms", "ms", Lower, None),
        def("serve.hot_max_rps", "1/s", Higher, None),
        def("serve.cells_computed", "count", Lower, None),
        def("serve.cells_cached", "count", Higher, None),
        def("serve.cells_joined", "count", Higher, None),
        def("serve.cache_hit_ratio", "fraction", Higher, None),
        def("trace_overhead_pct", "%", Lower, None),
    ]);
    v
}

/// Named measurements, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    /// The names in `defs` this report lacks, or holds as a non-finite
    /// number.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter(|d| !self.get(&d.name).is_some_and(f64::is_finite))
            .map(|d| d.name.clone())
            .collect()
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Operations attempted (cells or requests).
    pub attempted: u64,
    /// Operations that failed (refused, errored or invalid).
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, carrying the metrics in `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let value = self.metrics.get(&d.name).unwrap_or(f64::NAN);
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back as the same
            // f64: every digit measured, no rounding.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                d.name,
                if value.is_finite() { value } else { 0.0 },
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_sizes_fit_the_contract() {
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.set("setup_s", 0.5);
        let line = o.result_line(&end_to_end()[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
