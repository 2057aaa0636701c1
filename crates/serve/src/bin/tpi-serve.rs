//! `tpi-serve` — the experiment service.
//!
//! ```text
//! tpi-serve                        # bind 127.0.0.1:0 (ephemeral port)
//! tpi-serve --addr 0.0.0.0:8080    # explicit bind address
//! tpi-serve --workers 8 --queue 128 --timeout-ms 30000
//! tpi-serve --cache-dir /var/tmp/tpi-cache --memory-cells 512
//! tpi-serve --faults seed=42,worker_panic=0.05,conn_drop=0.02
//! ```
//!
//! On startup the bound address is printed to stdout as
//! `tpi-serve listening on http://HOST:PORT` — when binding port 0 this
//! line is the only way to learn the real port, so supervisors (and the
//! CI smoke job) parse it instead of hard-coding ports. The process runs
//! until a client posts `/admin/shutdown`, then drains in-flight work
//! and prints a final stats line to stderr.
//!
//! With `--cache-dir` every computed cell is also persisted to a
//! crash-safe on-disk store; a restart on the same directory recovers
//! (and re-verifies) the surviving records, so the service comes back
//! warm. The startup recovery scan is reported to stderr.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tpi::cli::{parse_bounded, CliError};
use tpi_serve::server::{ServeConfig, Server};
use tpi_serve::FaultPlan;

const USAGE: &str = "usage: tpi-serve [--addr HOST:PORT] [--workers N] [--queue N] \
     [--timeout-ms N] [--cache-dir DIR] [--memory-cells N] [--faults SPEC]";

fn parse_args(args: &[String]) -> Result<Option<ServeConfig>, CliError> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--workers" => {
                config.workers = parse_bounded(flag, value, 1, 1024)? as usize;
            }
            "--queue" => {
                config.queue_cap = parse_bounded(flag, value, 1, 1 << 20)? as usize;
            }
            "--timeout-ms" => {
                config.request_timeout =
                    Duration::from_millis(parse_bounded(flag, value, 1, 86_400_000)?);
            }
            "--cache-dir" => {
                // Crash-safe persistent result cache (see DESIGN.md,
                // "Replication and persistence").
                config.cache_dir = Some(std::path::PathBuf::from(value));
            }
            "--memory-cells" => {
                config.memory_cells = parse_bounded(flag, value, 1, 1 << 24)? as usize;
            }
            "--faults" => {
                // Deterministic fault injection (see DESIGN.md, "Failure
                // model"). Off — and zero-cost — unless this flag is set.
                let plan = FaultPlan::parse(value)
                    .map_err(|e| CliError::Field(format!("error[bad_field]: --faults: {e}")))?;
                config.fault = Some(Arc::new(plan));
            }
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => return e.exit(USAGE),
    };

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("tpi-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(report) = server.recovery_report() {
        eprintln!(
            "tpi-serve: disk cache recovered: {} scanned, {} valid, {} quarantined, {} tmp removed",
            report.scanned, report.valid, report.quarantined, report.tmp_removed
        );
    }
    // The ready line: parsed by supervisors and tests, never hard-coded.
    println!("tpi-serve listening on http://{}", server.addr());
    let _ = std::io::stdout().flush();

    server.wait_for_shutdown_request();
    eprintln!("tpi-serve: shutdown requested, draining");
    let stats = server.shutdown();
    eprintln!("{stats}");
    ExitCode::SUCCESS
}
