//! `tpi-perf ab`: interleaved A/B trials of two builds of the benchmark.
//!
//! Pair `k` runs both binaries on seed `seed + k`, alternating which side
//! goes first. Every trial appends one evidence record to a JSONL file
//! (the trial-record style of agentlab's runner). The summary gives each
//! side's median and quartiles per end-to-end metric, the change's win
//! fraction, and a verdict against the metric's bound (the catalogue's
//! bounds, which a unit test keeps equal to `BENCHMARK.json`'s):
//!
//! * `improved` — at least 10 pairs ran, B wins at least nine tenths of
//!   them, the medians differ by more than A's own quartile spread, and
//!   every B trial passed its correctness checks;
//! * `unresolved` — A's spread is wider than the bound, unless every B
//!   run reads better than every A run; or a would-be improvement whose B
//!   side failed a correctness check;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unchanged` — otherwise.
//!
//! The comparison fails on a regression, on a higher error share for B,
//! or on any B trial that failed its correctness checks. Each trial
//! measures for `RUN_SECONDS`, so both sides share one run length.

use crate::metrics::{end_to_end, Better};
use crate::stats::{median, quartiles};
use crate::RUN_SECONDS;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use tpi_serve::json::{parse, Json};

/// One side's result for one trial.
struct Trial {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

impl Trial {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn run_trial(bin: &str, workload: &str, seed: u64) -> Result<(Trial, String, f64), String> {
    let started = Instant::now();
    let output = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_owned();
    let doc = parse(&line).map_err(|e| format!("{bin}: last line is not JSON ({e})"))?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{bin}: result has no metrics")),
    };
    let trial = Trial {
        correct: output.status.success() && matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
    };
    Ok((trial, line, wall))
}

/// How far `x` is better than `y` in the metric's direction.
fn gain(better: Better, x: f64, y: f64) -> f64 {
    match better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    }
}

/// Pairs in which B read better than A; ties count for neither.
fn wins(a: &[f64], b: &[f64], better: Better) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| gain(better, **y, **x) > 0.0)
        .count()
}

/// The verdict for one metric; `a` and `b` are per-pair values.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let (q1, a_med, q3) = quartiles(a);
    let b_med = median(b);
    let spread = q3 - q1;
    let all_better = b
        .iter()
        .all(|y| a.iter().all(|x| gain(better, *y, *x) > 0.0));
    let won = a.len() >= 10 && wins(a, b, better) * 10 >= 9 * a.len();
    if won && gain(better, b_med, a_med) > spread {
        "improved"
    } else if spread > bound * a_med.abs() && !all_better {
        "unresolved"
    } else if -gain(better, b_med, a_med) > bound * a_med.abs() {
        "regressed"
    } else {
        "unchanged"
    }
}

/// Failed operations over attempted ones, over a side's trials.
fn error_share(side: &[Trial]) -> f64 {
    let attempted: f64 = side.iter().map(|t| t.attempted).sum();
    side.iter().map(|t| t.failed).sum::<f64>() / attempted.max(1.0)
}

/// One end-to-end metric's comparison.
struct Row {
    name: String,
    better: Better,
    a: Vec<f64>,
    b: Vec<f64>,
    verdict: &'static str,
}

/// Every end-to-end metric's verdict, and whether the change passes: no
/// regression, no higher error share, and every B trial correct. A B side
/// with an incorrect trial is never `improved`.
fn summarize(a: &[Trial], b: &[Trial]) -> (Vec<Row>, bool) {
    let b_correct = b.iter().all(|t| t.correct);
    let rows: Vec<Row> = end_to_end()
        .into_iter()
        .filter_map(|d| {
            let bound = d.bound?;
            let va: Vec<f64> = a.iter().map(|t| t.value(&d.name)).collect();
            let vb: Vec<f64> = b.iter().map(|t| t.value(&d.name)).collect();
            let v = match verdict(&va, &vb, d.better, bound) {
                "improved" if !b_correct => "unresolved",
                v => v,
            };
            Some(Row {
                name: d.name,
                better: d.better,
                a: va,
                b: vb,
                verdict: v,
            })
        })
        .collect();
    let pass = b_correct
        && rows.iter().all(|r| r.verdict != "regressed")
        && error_share(b) <= error_share(a);
    (rows, pass)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (Some(a), Some(b), Some(workload)) = (
        flag(args, "--a"),
        flag(args, "--b"),
        flag(args, "--workload"),
    ) else {
        return Err(
            "usage: tpi-perf ab --a BIN --b BIN --workload W [--pairs N] [--seed N] \
             [--out TRIALS.jsonl]"
                .to_owned(),
        );
    };
    let number = |name: &str, default: u64| match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("{name} {v:?} is not a number")),
    };
    let pairs = number("--pairs", 10)?;
    let seed = number("--seed", 1)?;
    let out_path = flag(args, "--out").unwrap_or_else(|| {
        let dir = crate::work_dir();
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!("ab-{workload}.jsonl"))
            .display()
            .to_string()
    });
    let mut evidence =
        std::fs::File::create(&out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut sides: [Vec<Trial>; 2] = [Vec::new(), Vec::new()];
    let mut record = 0;
    for pair in 0..pairs {
        let pair_seed = seed + pair;
        let order: [usize; 2] = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for (position, &side) in order.iter().enumerate() {
            let bin = if side == 0 { &a } else { &b };
            let (trial, line, wall) = run_trial(bin, &workload, pair_seed)?;
            writeln!(
                evidence,
                "{{\"trial\": {record}, \"pair\": {pair}, \"variant\": \"{}\", \"bin\": {}, \
                 \"workload\": \"{workload}\", \"seed\": {pair_seed}, \"position\": {position}, \
                 \"wall_s\": {wall:?}, \"result\": {line}}}",
                ["a", "b"][side],
                Json::from(bin.as_str()).render(),
            )
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            record += 1;
            sides[side].push(trial);
        }
    }
    evidence
        .flush()
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("workload {workload}: {pairs} pairs, evidence in {out_path}");
    println!(
        "error share: a {:.4}, b {:.4}; incorrect trials: a {}, b {}",
        error_share(&sides[0]),
        error_share(&sides[1]),
        sides[0].iter().filter(|t| !t.correct).count(),
        sides[1].iter().filter(|t| !t.correct).count()
    );
    println!(
        "{:<14} {:>30} {:>30} {:>6} {:>11}",
        "metric", "a median [q1, q3]", "b median [q1, q3]", "b wins", "verdict"
    );
    let (rows, pass) = summarize(&sides[0], &sides[1]);
    for r in &rows {
        let (a1, am, a3) = quartiles(&r.a);
        let (b1, bm, b3) = quartiles(&r.b);
        println!(
            "{:<14} {:>30} {:>30} {:>6} {:>11}",
            r.name,
            format!("{am:.4} [{a1:.4}, {a3:.4}]"),
            format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
            format!("{}/{pairs}", wins(&r.a, &r.b, r.better)),
            r.verdict,
        );
    }
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        let same = a.clone();
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1), "improved");
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), "regressed");
        assert_eq!(verdict(&a, &same, Better::Lower, 0.1), "unchanged");
        assert_eq!(verdict(&a, &faster, Better::Higher, 0.1), "regressed");
        // Fewer than ten pairs never claim a gain.
        assert_eq!(
            verdict(&a[..4], &faster[..4], Better::Lower, 0.1),
            "unchanged"
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&noisy, &noisy, Better::Lower, 0.1), "unresolved");
    }

    /// Ten trials whose every end-to-end metric reads `scale` times a
    /// slightly varying base, moved in the metric's better direction.
    fn trials(scale: f64, correct: bool) -> Vec<Trial> {
        (0..10)
            .map(|i| Trial {
                correct,
                attempted: 100.0,
                failed: 0.0,
                metrics: end_to_end()
                    .into_iter()
                    .map(|d| {
                        let base = 100.0 + f64::from(i % 3);
                        let v = match d.better {
                            Better::Lower => base * scale,
                            Better::Higher => base / scale,
                        };
                        (d.name, v)
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn an_incorrect_change_fails_and_claims_no_gain() {
        let parent = trials(1.0, true);
        let (rows, pass) = summarize(&parent, &trials(0.8, true));
        assert!(pass);
        assert!(rows.iter().all(|r| r.verdict == "improved"));

        let mut wrong = trials(0.8, true);
        wrong[3].correct = false;
        let (rows, pass) = summarize(&parent, &wrong);
        assert!(!pass, "a change with an incorrect trial fails");
        assert!(rows.iter().all(|r| r.verdict != "improved"));

        let (_, pass) = summarize(&parent, &trials(1.0, false));
        assert!(!pass, "an unchanged but incorrect change fails too");
    }
}
