//! Command-line front end for the interleaving-level model checker:
//! exhaustively verifies every registered coherence engine against every
//! interleaving of tiny bounded access programs.
//!
//! ```text
//! tpi-model --schemes all --procs 3 --words 2 --depth 1 --deny violations
//! tpi-model --schemes tpi,tardis --format json
//! ```

use std::process::ExitCode;
use tpi::cli::{parse_bounded, parse_scheme_list, CliError};
use tpi::proto::{registry, SchemeId};
use tpi_analysis::diag::json_string;
use tpi_analysis::diagnostics_json;
use tpi_analysis::model::{check_schemes, ModelOptions, ModelReport};

const USAGE: &str = "\
tpi-model: exhaustive interleaving-level coherence model checker

USAGE:
    tpi-model [OPTIONS]

OPTIONS:
    --schemes <list>      all, or comma-separated registry schemes
                          (base, sc, tpi, fullmap, limitless, ideal,
                          tardis, hybrid)                  [default: all]
    --procs <n>           processors, 2-4                  [default: 2]
    --words <n>           shared words, 1-4                [default: 2]
    --depth <n>           accesses/proc/epoch enumerated, 1-3 [default: 1]
    --epochs <n>          epochs per enumerated program, 2-4  [default: 2]
    --max-states <n>      state budget per scheme x program
                                                     [default: 1000000]
    --format <fmt>        human|json                       [default: human]
    --deny violations     exit nonzero on any violation
    -h, --help            show this help
";

struct Options {
    schemes: Vec<SchemeId>,
    model: ModelOptions,
    json: bool,
    deny_violations: bool,
}

fn parse_args() -> Result<Option<Options>, CliError> {
    let mut opts = Options {
        schemes: registry::global().all().iter().map(|s| s.id()).collect(),
        model: ModelOptions::default(),
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
            "--schemes" => {
                opts.schemes = parse_scheme_list(&value("--schemes")?)?;
            }
            "--procs" => {
                opts.model.procs = parse_bounded("--procs", &value("--procs")?, 2, 4)? as u32;
            }
            "--words" => {
                opts.model.words = parse_bounded("--words", &value("--words")?, 1, 4)? as u32;
            }
            "--depth" => {
                opts.model.depth = parse_bounded("--depth", &value("--depth")?, 1, 3)? as usize;
            }
            "--epochs" => {
                opts.model.epochs = parse_bounded("--epochs", &value("--epochs")?, 2, 4)? as usize;
            }
            "--max-states" => {
                opts.model.max_states =
                    parse_bounded("--max-states", &value("--max-states")?, 1, u64::MAX)?;
            }
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

fn print_human(report: &ModelReport) {
    let o = &report.options;
    println!(
        "tpi-model: {} scheme(s), {} program(s) ({} dropped by symmetry), \
         procs={} words={} depth={} epochs={}",
        report.schemes.len(),
        report.programs,
        report.dropped,
        o.procs,
        o.words,
        o.depth,
        o.epochs,
    );
    for s in &report.schemes {
        let verdict = if !s.violations.is_empty() {
            format!("{} VIOLATION(S)", s.violations.len())
        } else if s.truncated {
            "TRUNCATED (state budget hit)".to_string()
        } else {
            "verified".to_string()
        };
        println!(
            "  {:<10} programs={:<4} states={:<8} schedules={:<8} claims={:<8} {verdict}",
            s.scheme.as_str(),
            s.programs,
            s.states,
            s.schedules,
            s.claims,
        );
        for v in &s.violations {
            println!("    {}", v.diagnostic().human());
            for (i, step) in v.trace.iter().enumerate() {
                println!("      step {}: {step}", i + 1);
            }
        }
    }
    println!(
        "tpi-model: explored {} state(s); {} violation(s)",
        report.total_states(),
        report.violations().len()
    );
}

fn print_json(report: &ModelReport) {
    let o = &report.options;
    let mut out = format!(
        "{{\"schema\":\"tpi-model/1\",\"options\":{{\"procs\":{},\"words\":{},\
         \"depth\":{},\"epochs\":{},\"max_states\":{}}},\"schemes\":[",
        o.procs, o.words, o.depth, o.epochs, o.max_states
    );
    for (i, s) in report.schemes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let diags: Vec<_> = s.violations.iter().map(|v| v.diagnostic()).collect();
        out.push_str(&format!(
            "{{\"scheme\":{},\"programs\":{},\"states\":{},\"schedules\":{},\
             \"claims\":{},\"truncated\":{},\"violations\":{}}}",
            json_string(s.scheme.as_str()),
            s.programs,
            s.states,
            s.schedules,
            s.claims,
            s.truncated,
            diagnostics_json(&diags),
        ));
    }
    out.push_str(&format!(
        "],\"programs\":{},\"dropped\":{},\"states\":{},\"violations\":{}}}",
        report.programs,
        report.dropped,
        report.total_states(),
        report.violations().len()
    ));
    println!("{out}");
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => return e.exit(USAGE),
    };
    let report = check_schemes(&opts.schemes, &opts.model);
    if opts.json {
        print_json(&report);
    } else {
        print_human(&report);
    }
    let violations = report.violations().len();
    if opts.deny_violations && (violations > 0 || !report.is_clean()) {
        eprintln!("tpi-model: denied: {violations} violation(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
