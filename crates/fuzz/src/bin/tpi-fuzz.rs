//! Command-line front end for the generative differential fuzzer.
//!
//! ```text
//! tpi-fuzz --seed 7 --count 200 --depth 3 --schemes all --deny violations
//! tpi-fuzz --seed 7 --count 20 --sabotage base-cache-shared --emit-corpus tests/corpus
//! ```

use std::process::ExitCode;
use tpi::cli::{parse_bounded, parse_scheme_list, CliError};
use tpi_fuzz::{run_fuzz, FuzzOptions, FuzzReport, Sabotage};

const USAGE: &str = "\
tpi-fuzz: generative kernel fuzzing with differential oracle checks

USAGE:
    tpi-fuzz [OPTIONS]

OPTIONS:
    --seed <n>            corpus master seed                [default: 1]
    --count <n>           kernels to generate, 1-100000     [default: 50]
    --depth <n>           serial-nest depth budget, 1-4     [default: 3]
    --schemes <list>      all, or comma-separated registry schemes
                          (base, sc, tpi, hw, ll, ideal,
                          tardis, hybrid)                   [default: all]
    --minimize            shrink violations to 1-minimal reproducers
    --sabotage <hook>     break one engine on purpose (tpi-skip-resets,
                          hw-drop-sharer, ll-drop-sharer,
                          base-cache-shared, hybrid-drop-sharer,
                          tardis-rewind-wts, hw-claims-shard-safe,
                          hw-commutes-always)
    --emit-corpus <dir>   write each violation's minimized (or full)
                          reproducer as <dir>/<kernel>.tpi
    --format <fmt>        human|json                        [default: human]
    --deny violations     exit nonzero on any violation
    -h, --help            show this help
";

struct Options {
    fuzz: FuzzOptions,
    emit_corpus: Option<String>,
    json: bool,
    deny_violations: bool,
}

fn parse_args() -> Result<Option<Options>, CliError> {
    let mut opts = Options {
        fuzz: FuzzOptions {
            minimize: false,
            ..FuzzOptions::default()
        },
        emit_corpus: None,
        json: false,
        deny_violations: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--seed" => {
                opts.fuzz.seed = parse_bounded("--seed", &value("--seed")?, 0, u64::MAX)?;
            }
            "--count" => {
                opts.fuzz.count =
                    parse_bounded("--count", &value("--count")?, 1, 100_000)? as usize;
            }
            "--depth" => {
                opts.fuzz.depth = parse_bounded("--depth", &value("--depth")?, 1, 4)? as usize;
            }
            "--schemes" => {
                opts.fuzz.schemes = parse_scheme_list(&value("--schemes")?)?;
            }
            "--minimize" => opts.fuzz.minimize = true,
            "--sabotage" => {
                opts.fuzz.sabotage = Some(
                    Sabotage::parse(&value("--sabotage")?)
                        .map_err(|e| CliError::Field(format!("error[bad_field]: {e}")))?,
                );
            }
            "--emit-corpus" => opts.emit_corpus = Some(value("--emit-corpus")?),
            "--format" => {
                opts.json = match value("--format")?.as_str() {
                    "human" => false,
                    "json" => true,
                    s => return Err(CliError::Usage(format!("unknown format {s:?}"))),
                }
            }
            "--deny" => {
                let what = value("--deny")?;
                if what != "violations" {
                    return Err(CliError::Usage(format!("unknown deny class {what:?}")));
                }
                opts.deny_violations = true;
            }
            f => return Err(CliError::Usage(format!("unknown flag {f:?}"))),
        }
    }
    Ok(Some(opts))
}

fn print_human(report: &FuzzReport) {
    let o = &report.options;
    let schemes: Vec<&str> = o.schemes.iter().map(|s| s.as_str()).collect();
    println!(
        "tpi-fuzz: seed={} count={} depth={} schemes=[{}]{}",
        o.seed,
        o.count,
        o.depth,
        schemes.join(","),
        o.sabotage
            .map_or_else(String::new, |s| format!(" sabotage={}", s.label())),
    );
    println!(
        "  checked {} kernel(s): {} parallel epoch(s), {} simulation(s)",
        report.checked, report.parallel_epochs, report.sims
    );
    for v in &report.violations {
        println!("  {}", v.diagnostic().human());
        if let Some(min) = &v.minimized {
            println!("    minimized reproducer ({} bytes):", min.len());
            for line in min.lines() {
                println!("      {line}");
            }
        }
    }
    println!("tpi-fuzz: {} violation(s)", report.violations.len());
}

fn emit_corpus(report: &FuzzReport, dir: &str) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for v in &report.violations {
        let path = format!("{dir}/{}.tpi", v.kernel);
        let body = v.minimized.as_deref().unwrap_or(&v.source);
        let mut text = String::new();
        text.push_str(&format!("! {}\n", v.diagnostic().human()));
        text.push_str(&format!(
            "! reproduce: tpi-fuzz --seed {} --count {} --depth {}{}\n",
            report.options.seed,
            v.index + 1,
            report.options.depth,
            report
                .options
                .sabotage
                .map_or_else(String::new, |s| format!(" --sabotage {}", s.label())),
        ));
        text.push_str(body);
        std::fs::write(&path, text)?;
        written += 1;
    }
    Ok(written)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => return e.exit(USAGE),
    };
    // Freshness violations surface as fenced panics inside the harness;
    // silence the default hook's backtrace spam while fuzzing.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_fuzz(&opts.fuzz);
    std::panic::set_hook(prev_hook);
    if opts.json {
        println!("{}", report.json());
    } else {
        print_human(&report);
    }
    if let Some(dir) = &opts.emit_corpus {
        match emit_corpus(&report, dir) {
            Ok(n) => eprintln!("tpi-fuzz: wrote {n} reproducer(s) to {dir}"),
            Err(e) => {
                eprintln!("tpi-fuzz: failed writing corpus to {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.deny_violations && !report.is_clean() {
        eprintln!("tpi-fuzz: denied: {} violation(s)", report.violations.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
