//! `tpi-perf` — the repository benchmark. See README.md.
//!
//! ```text
//! tpi-perf --workload W --seed N [--seconds S] --trace 0|1 [--scale test] [--out spans.json]
//! tpi-perf ab --a BIN --b BIN --workload W [--pairs N] [--seed N] [--out trials.jsonl]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is the separate traced run that reports the per-layer metrics and
//! writes the span file (to `--out`, or under the build directory). `run`
//! and `trace` as a first argument stand for `--trace 0` and `--trace 1`.
//! The last line of standard output is the result object.

mod ab;
mod client;
mod gauge;
mod layers;
mod metrics;
mod serve;
mod sim;
mod span;
mod stats;

use metrics::{end_to_end, per_layer, Outcome};
use sim::Cell;
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use tpi::ExperimentConfig;
use tpi_proto::SchemeId;
use tpi_workloads::{Kernel, Scale};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    Repro,
    Large,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pipeline,
        Workload::Repro,
        Workload::Large,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Repro => "repro",
            Workload::Large => "large",
            Workload::Serve => "serve",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long one run measures by default: `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub spans: Option<PathBuf>,
}

/// Where the benchmark writes scratch files and spans: the build
/// directory, inside the checkout.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
        Scale::Large => "large",
    }
}

/// The end-to-end run: tracing off.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload {
        Workload::Pipeline => sim::run_cells(
            opts,
            &sim::pipeline_cells(opts.scale, opts.seed),
            sim::PIPELINE_REPS,
        ),
        Workload::Large => sim::run_cells(
            opts,
            &sim::large_cells(opts.scale, opts.seed),
            sim::LARGE_REPS,
        ),
        Workload::Repro => sim::run_repro(opts),
        Workload::Serve => serve::run(opts),
    }
}

/// The traced run: per-layer metrics, spans in memory until the end.
pub fn trace(opts: &Opts, t: &Tracer) -> Outcome {
    let seed = opts.seed;
    let probe = |kernel, scale, procs, shard_procs, seed| layers::ProbeSpec {
        cell: Cell::new(kernel, scale, SchemeId::TPI, procs, seed),
        shard_cell: Cell::new(kernel, scale, SchemeId::TPI, shard_procs, seed),
    };
    let mut out = match opts.workload {
        Workload::Pipeline => sim::trace_cells(
            opts,
            t,
            &sim::pipeline_cells(opts.scale, seed),
            &probe(Kernel::Ocean, opts.scale, 16, 16, seed),
        ),
        Workload::Large => {
            let cells = sim::large_cells(opts.scale, seed);
            let scale = cells[0].scale;
            sim::trace_cells(opts, t, &cells, &probe(Kernel::Ocean, scale, 64, 256, seed))
        }
        Workload::Repro => {
            let paper_seed = ExperimentConfig::paper().seed;
            sim::trace_repro(
                opts,
                t,
                &probe(Kernel::Ocean, opts.scale, 16, 16, paper_seed),
            )
        }
        Workload::Serve => return serve::trace(opts, t),
    };
    out.metrics.extend(serve::probe_fresh(t, seed));
    out
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tpi-perf --workload pipeline|repro|large|serve --seed N --trace 0|1 \
         [--seconds S] [--scale paper|test] [--out SPANS]\n       \
         tpi-perf ab --a BIN --b BIN --workload W [--pairs N] [--seed N] [--out TRIALS.jsonl]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Parallelism is set explicitly below; the environment must not move
    // it. No thread exists yet, so clearing the variables is race-free.
    std::env::remove_var("TPI_THREADS");
    std::env::remove_var("TPI_SIM_SHARDS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut traced, rest) = match args.first().map(String::as_str) {
        Some("ab") => return ab::main(&args[1..]),
        Some("run") => (Some(false), &args[1..]),
        Some("trace") => (Some(true), &args[1..]),
        _ => (None, &args[..]),
    };
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut scale = Scale::Paper;
    let mut spans = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return usage(),
            },
            "--scale" => match value.as_str() {
                "paper" => scale = Scale::Paper,
                "test" => scale = Scale::Test,
                _ => return usage(),
            },
            "--out" => spans = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(traced)) = (workload, seed, traced) else {
        return usage();
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        scale,
        spans,
    };
    println!(
        "# tpi-perf {} workload={} seed={seed} seconds={seconds} scale={} host_cores={} threads={}",
        if traced { "trace" } else { "run" },
        workload.name(),
        scale_name(scale),
        stats::host_cores(),
        if workload == Workload::Repro {
            stats::host_cores()
        } else {
            1
        },
    );
    let (out, defs) = if traced {
        let t = Tracer::new();
        let out = trace(&opts, &t);
        let path = opts.spans.clone().unwrap_or_else(|| {
            work_dir().join(format!("tpi-perf-spans-{}-{seed}.json", workload.name()))
        });
        let spans = t.spans();
        for (layer, ms) in span::self_ms_by_layer(&spans) {
            eprintln!("[self time {layer:<9} {ms:>10.2} ms]");
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, span::render(&spans, workload.name(), seed)) {
            Ok(()) => eprintln!("[{} spans written to {}]", spans.len(), path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        (out, per_layer())
    } else {
        (run(&opts), end_to_end())
    };
    for name in out.metrics.missing(&defs) {
        eprintln!("metric {name} was not measured");
    }
    for d in &defs {
        eprintln!(
            "{:<36} {:>14.4} {}",
            d.name,
            out.metrics.get(&d.name).unwrap_or(f64::NAN),
            d.unit
        );
    }
    for failure in &out.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", out.result_line(&defs));
    if out.check_failures.is_empty() && out.metrics.missing(&defs).is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::MetricDef;
    use tpi_serve::json::{parse, Json};

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    fn opts(workload: Workload) -> Opts {
        Opts {
            workload,
            seed: 7,
            seconds: 0.2,
            scale: Scale::Test,
            spans: None,
        }
    }

    fn assert_complete(out: &Outcome, defs: &[MetricDef], what: &str) {
        assert!(
            out.check_failures.is_empty(),
            "{what}: {:?}",
            out.check_failures
        );
        assert_eq!(out.metrics.missing(defs), Vec::<String>::new(), "{what}");
        assert!(out.attempted > 0 && out.failed == 0, "{what}");
        let line = out.result_line(defs);
        for d in defs {
            let entry = format!("\"{}\": {{\"value\": ", d.name);
            let unit = format!("\"unit\": \"{}\"}}", d.unit);
            let at = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{what}: {} missing", d.name));
            assert!(
                line[at..].contains(&unit),
                "{what}: {} lacks its unit",
                d.name
            );
        }
    }

    #[test]
    fn every_workload_emits_every_metric_at_test_scale() {
        for w in Workload::ALL {
            assert_complete(&run(&opts(w)), &end_to_end(), w.name());
            assert_complete(&trace(&opts(w), &Tracer::new()), &per_layer(), w.name());
        }
    }

    #[test]
    fn traced_counters_equal_untraced_counters() {
        let cells = sim::pipeline_cells(Scale::Test, 3);
        let order: Vec<usize> = (0..cells.len()).rev().collect();
        let (out, _, _) = sim::cell_layers(&Tracer::new(), &cells, &order);
        assert!(out.check_failures.is_empty(), "{:?}", out.check_failures);
        assert!(out.metrics.get("sim.events").is_some_and(|n| n > 0.0));
        assert!(out.metrics.get("proto.tpi_fills").is_some_and(|n| n > 0.0));
    }

    #[test]
    fn a_corrupted_golden_block_fails_the_repro_check() {
        let golden = sim::golden_blocks(sim::GOLDEN);
        assert_eq!(golden.len(), 22);
        let (id, block) = &golden[2];
        assert_eq!(sim::check_block(&golden, id, block), Ok(()));
        let corrupted = block.replacen('1', "2", 1);
        assert!(sim::check_block(&golden, id, &corrupted).is_err());
        assert!(sim::check_block(&golden, "e99", block).is_err());
    }

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The metrics `BENCHMARK.json` lists under `section`, checked against
    /// the contract's shape and against this binary's catalogue.
    fn check_metrics(doc: &Json, section: &str, want: &[MetricDef], max: usize) {
        let list = doc
            .get(section)
            .and_then(Json::as_array)
            .expect("metric list");
        assert!(
            (1..=max).contains(&list.len()),
            "{section}: {} metrics",
            list.len()
        );
        assert_eq!(list.len(), want.len(), "{section} matches the catalogue");
        for (m, d) in list.iter().zip(want) {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            assert!(name_ok(name), "{name}");
            assert_eq!(name, d.name);
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert_eq!(unit, d.unit, "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(d.better.label()),
                "{name}"
            );
            match d.bound {
                Some(bound) => {
                    assert_eq!(keys(m), ["name", "unit", "better", "bound"], "{name}");
                    let b = m.get("bound").and_then(Json::as_f64).expect("bound");
                    assert!(b > 0.0 && b <= 0.25 && b == bound, "{name}: bound {b}");
                }
                None => assert_eq!(keys(m), ["name", "unit", "better"], "{name}"),
            }
        }
    }

    #[test]
    fn benchmark_json_follows_the_schema() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command = doc
            .get("command")
            .and_then(Json::as_array)
            .expect("command");
        assert!((1..=32).contains(&command.len()));
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
        let paths = doc.get("paths").and_then(Json::as_array).expect("paths");
        assert_eq!(paths, [Json::from("crates/bench/src/bin/perf")]);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
        assert_eq!(
            seconds, RUN_SECONDS,
            "the default run length is run_seconds"
        );
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        assert!((2..=8).contains(&workloads.len()));
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in workloads {
            assert_eq!(keys(w), ["name", "why"]);
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        check_metrics(&doc, "end_to_end", &end_to_end(), 16);
        check_metrics(&doc, "per_layer", &per_layer(), 128);
        let setup = end_to_end()
            .into_iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
        let largest = end_to_end()
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
