//! Integration test for the profiling surface: the `tpi-run --profile`
//! stage accounting must add up to the wall clock measured around the
//! grid run.

use std::process::Command;

/// `tpi-run --profile` prints one `profile key=value ...` line per stage
/// and counter plus `total_nanos` (sum of top-level stages) and
/// `wall_nanos` (measured around the grid run). With the runner pinned to
/// one thread the two must agree closely: the profiled stages are the
/// whole pipeline, so anything beyond a small orchestration overhead
/// means a stage is escaping attribution.
#[test]
fn profile_output_reconciles_with_wall_clock() {
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/programs/stencil.tpi"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_tpi-run"))
        .arg(program)
        .args(["--scheme", "all", "--profile"])
        .env("TPI_THREADS", "1")
        .output()
        .expect("run tpi-run");
    assert!(
        out.status.success(),
        "tpi-run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");

    let mut stage_nanos: Vec<(String, u64)> = Vec::new();
    let mut counters = 0usize;
    let mut total_nanos = None;
    let mut wall_nanos = None;
    for line in stdout.lines().filter(|l| l.starts_with("profile ")) {
        let fields: Vec<(&str, &str)> = line["profile ".len()..]
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .collect();
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        if let Some(stage) = get("stage") {
            let nanos: u64 = get("nanos").expect("nanos").parse().expect("nanos u64");
            let calls: u64 = get("calls").expect("calls").parse().expect("calls u64");
            assert!(calls > 0, "stage {stage} has zero calls");
            stage_nanos.push((stage, nanos));
        } else if get("counter").is_some() {
            counters += 1;
        } else if let Some(v) = get("total_nanos") {
            total_nanos = Some(v.parse::<u64>().expect("total u64"));
        } else if let Some(v) = get("wall_nanos") {
            wall_nanos = Some(v.parse::<u64>().expect("wall u64"));
        }
    }

    let total = total_nanos.expect("total_nanos line") as f64;
    let wall = wall_nanos.expect("wall_nanos line") as f64;
    assert!(counters > 0, "at least one counter line");
    let stages: Vec<&str> = stage_nanos.iter().map(|(s, _)| s.as_str()).collect();
    assert!(stages.contains(&"prepare"), "prepare stage present");
    assert!(stages.contains(&"simulate"), "simulate stage present");

    // The printed total must equal the sum of top-level stages...
    let top_sum: u64 = stage_nanos
        .iter()
        .filter(|(s, _)| !s.contains('/'))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(top_sum as f64, total, "total_nanos is the top-level sum");

    // ...and account for the measured wall clock to within 5%.
    assert!(
        total <= wall,
        "single-threaded stage time {total} exceeds wall {wall}"
    );
    assert!(
        total >= 0.95 * wall,
        "profiled stages cover only {:.1}% of wall time ({total} of {wall} ns)",
        100.0 * total / wall
    );
}
