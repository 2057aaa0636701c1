//! `tpi-chaos` — a seeded chaos soak against an in-process service.
//!
//! The harness starts a real [`Server`] with a [`FaultPlan`] armed at
//! every injection site, hammers it with the retrying load generator,
//! pokes it with garbage bytes, shuts it down gracefully, and then
//! asserts the failure-isolation invariants the service promises:
//!
//! 1. **Every request is terminally answered** — each load-generator
//!    request ends in exactly one of: a valid 200, a structured non-2xx,
//!    an invalid body, or an exhausted-retries socket error. Nothing
//!    hangs.
//! 2. **No wedged slots** — after shutdown the in-flight table is empty:
//!    every flight slot was resolved (computed, failed, or terminally
//!    refused), so no waiter can ever be stuck.
//! 3. **The cache never lies** — every cached cell (minus the slots the
//!    plan deliberately corrupted, which it logs) is byte-identical to a
//!    fresh single-threaded [`Runner`] computing the same cell.
//! 4. **The server outlives garbage** — raw malformed bytes on the wire
//!    get a structured 400 or a clean close, and the service still
//!    answers `/healthz` afterwards.
//!
//! Runs are reproducible: the fault plan's decisions and the load
//! generator's retry jitter both derive from the one `--seed`.

use crate::fault::{FaultPlan, FaultSite};
use crate::json::Json;
use crate::loadgen::{self, LoadgenConfig, LoadgenReport, RetryPolicy};
use crate::pool::{CellError, CellStore};
use crate::server::{ServeConfig, ServeStats, Server};
use crate::wire::{render_cell, render_cell_error, CellKey};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use tpi::Runner;

/// Chaos-soak parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for both the fault plan and the retry jitter.
    pub seed: u64,
    /// Concurrent load-generator connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Server queue capacity, in cells.
    pub queue_cap: usize,
    /// Fault spec override; `None` uses [`default_spec`] with the seed.
    pub spec: Option<String>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            connections: 8,
            requests_per_connection: 6,
            workers: 4,
            queue_cap: 64,
            spec: None,
        }
    }
}

/// The default all-sites-armed fault spec for `seed`.
#[must_use]
pub fn default_spec(seed: u64) -> String {
    format!(
        "seed={seed},worker_panic=0.05,worker_exit=0.03,cell_latency=0.2:3,\
         cache_corrupt=0.05,conn_drop=0.05,resp_truncate=0.05,overload=0.1"
    )
}

/// One invariant's verdict.
#[derive(Debug, Clone)]
pub struct Invariant {
    /// What was asserted.
    pub name: &'static str,
    /// Whether it held.
    pub held: bool,
    /// Supporting numbers or the failure detail.
    pub detail: String,
}

/// Everything a chaos run observed.
#[derive(Debug)]
pub struct ChaosReport {
    /// The fault spec the run injected.
    pub spec: String,
    /// The load-generator tallies.
    pub load: LoadgenReport,
    /// The server's final stats line.
    pub stats: ServeStats,
    /// Fires per site, aligned with [`FaultSite::ALL`].
    pub faults_fired: [u64; FaultSite::COUNT],
    /// Cells byte-verified against a fresh serial runner.
    pub cells_verified: usize,
    /// Corrupted cells excluded from verification (the plan logged them).
    pub cells_corrupted: usize,
    /// Garbage probes sent.
    pub garbage_probes: usize,
    /// The invariant verdicts, in assertion order.
    pub invariants: Vec<Invariant>,
}

impl ChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.held)
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[tpi-chaos] spec: {}", self.spec)?;
        writeln!(
            f,
            "[tpi-chaos] load: {} requests, {} ok, {} retries, {} exhausted, {} io errors",
            self.load.requests,
            self.load.ok,
            self.load.retries,
            self.load.retries_exhausted,
            self.load.io_errors
        )?;
        for (status, n) in &self.load.non_2xx {
            writeln!(f, "[tpi-chaos]   non-2xx {status}: {n}")?;
        }
        let fired: Vec<String> = FaultSite::ALL
            .iter()
            .zip(self.faults_fired.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(site, n)| format!("{}={n}", site.key()))
            .collect();
        writeln!(f, "[tpi-chaos] faults fired: {}", fired.join(" "))?;
        writeln!(
            f,
            "[tpi-chaos] hardening: {} cell panics, {} worker restarts",
            self.stats.cell_panics, self.stats.worker_restarts
        )?;
        writeln!(
            f,
            "[tpi-chaos] cache: {} cells verified byte-identical, {} corrupted slots excluded",
            self.cells_verified, self.cells_corrupted
        )?;
        for inv in &self.invariants {
            writeln!(
                f,
                "[tpi-chaos] {} {}: {}",
                if inv.held { "PASS" } else { "FAIL" },
                inv.name,
                inv.detail
            )?;
        }
        write!(
            f,
            "[tpi-chaos] {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Deterministic garbage the probe phase writes at the raw TCP level.
fn garbage_payloads() -> Vec<&'static [u8]> {
    vec![
        b"GARBAGE BYTES NOT HTTP\r\n\r\n",
        b"POST /v1/experiments HTTP/1.1\r\ncontent-length: nonsense\r\n\r\n",
        b"\x00\x01\x02\x03\xff\xfe HTTP?\r\n\r\n",
        // A truncated body: header promises more bytes than are sent.
        b"POST /v1/experiments HTTP/1.1\r\ncontent-length: 999\r\n\r\n{\"ker",
    ]
}

/// Writes one garbage payload and reports what came back: a structured
/// 4xx status line, or a clean close/timeout. Either is acceptable; the
/// point is the *server* must survive it.
fn probe_garbage(addr: SocketAddr, payload: &[u8]) -> Result<(), String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("probe connect failed: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut out = &stream;
    // The accept loop may deliberately drop the connection (conn_drop
    // fault): a write error is a valid outcome, not a probe failure.
    if out.write_all(payload).and_then(|()| out.flush()).is_err() {
        return Ok(());
    }
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(()), // clean close
        Ok(_) => {
            if line.starts_with("HTTP/1.1 4") {
                // Drain politely; the server closes after the error.
                let mut rest = Vec::new();
                let _ = reader.read_to_end(&mut rest);
                Ok(())
            } else {
                Err(format!("garbage got unexpected response line {line:?}"))
            }
        }
        Err(_) => Ok(()), // timeout/reset — the connection died, fine
    }
}

/// `GET /healthz` with a few attempts, because the `conn_drop` fault can
/// eat any individual probe.
fn healthz_alive(addr: SocketAddr) -> bool {
    for _ in 0..10 {
        if let Ok(response) = loadgen::get(addr, "/healthz", Duration::from_secs(5)) {
            if response.status == 200 {
                return true;
            }
        }
    }
    false
}

/// Replays the cache snapshot against a fresh serial [`Runner`] and
/// returns `(verified, mismatches)`, skipping `corrupted` keys.
fn verify_cache(store: &CellStore, corrupted: &[CellKey]) -> (usize, Vec<String>) {
    let fresh = Runner::serial();
    let mut verified = 0usize;
    let mut mismatches = Vec::new();
    for (key, outcome) in store.snapshot() {
        if corrupted.contains(&key) {
            continue;
        }
        let served = match outcome.as_ref() {
            Ok(value) => value.rendered(&key),
            Err(CellError::Failed(message)) => render_cell_error(&key, message).render(),
            Err(other) => {
                mismatches.push(format!("{key:?}: transient outcome {other:?} was cached"));
                continue;
            }
        };
        let config = match key.config() {
            Ok(config) => config,
            Err(e) => {
                mismatches.push(format!("{key:?}: cached cell has invalid config: {e}"));
                continue;
            }
        };
        let recomputed = match fresh.run_kernel_safe(key.kernel, key.scale, &config) {
            Ok(Ok(result)) => render_cell(&key, &result).render(),
            Ok(Err(e)) => render_cell_error(&key, &e.to_string()).render(),
            Err(panic_message) => {
                mismatches.push(format!(
                    "{key:?}: serial recompute panicked: {panic_message}"
                ));
                continue;
            }
        };
        if served == recomputed {
            verified += 1;
        } else {
            mismatches.push(format!(
                "{key:?}: served bytes differ from serial recompute"
            ));
        }
    }
    (verified, mismatches)
}

/// Runs the full soak. See the [module docs](self) for what it asserts.
///
/// # Errors
///
/// Fails on setup problems (bad fault spec, bind failure) — invariant
/// violations are reported in the returned [`ChaosReport`], not as
/// errors.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let spec = config
        .spec
        .clone()
        .unwrap_or_else(|| default_spec(config.seed));
    let plan = Arc::new(FaultPlan::parse(&spec)?);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: config.workers,
        queue_cap: config.queue_cap,
        request_timeout: Duration::from_secs(10),
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let store = server.cell_store();

    let load = loadgen::run(&LoadgenConfig {
        addr,
        connections: config.connections,
        requests_per_connection: config.requests_per_connection,
        timeout: Duration::from_secs(15),
        retry: RetryPolicy {
            budget: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            seed: config.seed,
        },
    });

    let payloads = garbage_payloads();
    let garbage_probes = payloads.len();
    let mut probe_failures: Vec<String> = Vec::new();
    for payload in payloads {
        if let Err(e) = probe_garbage(addr, payload) {
            probe_failures.push(e);
        }
    }
    let alive_after_garbage = healthz_alive(addr);

    let stats = server.shutdown();
    let corrupted = plan.corrupted_cells();
    let (cells_verified, cache_mismatches) = verify_cache(&store, &corrupted);

    let answered = load.ok
        + load.invalid_bodies
        + load.io_errors
        + load.non_2xx.iter().map(|(_, n)| n).sum::<usize>();
    let mut invariants = vec![
        Invariant {
            name: "every request terminally answered",
            held: answered == load.requests,
            detail: format!("{answered}/{} accounted for", load.requests),
        },
        Invariant {
            name: "no wedged in-flight slots after drain",
            held: store.inflight_cells() == 0,
            detail: format!("{} slots still in flight", store.inflight_cells()),
        },
        Invariant {
            name: "cache byte-identical to a fresh serial runner",
            held: cache_mismatches.is_empty(),
            detail: if cache_mismatches.is_empty() {
                format!(
                    "{cells_verified} cells verified, {} corrupted excluded",
                    corrupted.len()
                )
            } else {
                cache_mismatches.join("; ")
            },
        },
        Invariant {
            name: "server survives garbage bytes",
            held: alive_after_garbage && probe_failures.is_empty(),
            detail: if probe_failures.is_empty() {
                format!(
                    "{garbage_probes} probes, healthz {}",
                    if alive_after_garbage { "ok" } else { "dead" }
                )
            } else {
                probe_failures.join("; ")
            },
        },
    ];
    // With worker_exit armed, at least one worker death should have been
    // supervised back to life in a soak of this size — but only assert
    // when the site is actually in the spec.
    if spec.contains("worker_exit") && stats.worker_restarts == 0 {
        let exits = plan.fired_counts()[FaultSite::WorkerExit.index()];
        invariants.push(Invariant {
            name: "supervision restarts dead workers",
            held: exits == 0,
            detail: if exits == 0 {
                "no worker exits fired this run".to_owned()
            } else {
                format!("{exits} worker exits fired but 0 restarts recorded")
            },
        });
    }

    Ok(ChaosReport {
        spec,
        load,
        stats,
        faults_fired: plan.fired_counts(),
        cells_verified,
        cells_corrupted: corrupted.len(),
        garbage_probes,
        invariants,
    })
}

// ---------------------------------------------------------------------
// Fleet chaos: `tpi-chaos --router`
// ---------------------------------------------------------------------

/// Parameters for the replicated soak (`tpi-chaos --router`): real
/// `tpi-serve` child processes behind an in-process
/// [`Router`](crate::router::Router), with a
/// seeded `replica_kill` fault SIGKILLing one replica mid-burst.
#[derive(Debug, Clone)]
pub struct RouterChaosConfig {
    /// Seed for the fault plan, the victim choice, and retry jitter.
    pub seed: u64,
    /// Replica processes to spawn.
    pub replicas: usize,
    /// Concurrent load-generator connections per burst.
    pub connections: usize,
    /// Requests per connection per burst.
    pub requests_per_connection: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Fault spec override; `None` uses [`default_router_spec`].
    pub spec: Option<String>,
    /// Path to the `tpi-serve` binary. `None` looks next to the current
    /// executable (the cargo target directory), which is right for the
    /// `tpi-chaos` binary; tests pass `CARGO_BIN_EXE_tpi-serve`.
    pub serve_bin: Option<std::path::PathBuf>,
    /// Root for the per-replica `--cache-dir`s. `None` uses a scratch
    /// directory under the system temp dir, removed on success.
    pub cache_root: Option<std::path::PathBuf>,
}

impl Default for RouterChaosConfig {
    fn default() -> Self {
        RouterChaosConfig {
            seed: 42,
            replicas: 3,
            connections: 8,
            requests_per_connection: 6,
            workers: 2,
            spec: None,
            serve_bin: None,
            cache_root: None,
        }
    }
}

/// The default fleet fault spec: kill exactly one replica, 300 ms into
/// the burst. (The per-replica process faults stay off — the point of
/// this soak is surviving *process* death, not re-testing the
/// single-server sites.)
#[must_use]
pub fn default_router_spec(seed: u64) -> String {
    format!("seed={seed},replica_kill=1:300@1")
}

/// Everything a fleet soak observed.
#[derive(Debug)]
pub struct RouterChaosReport {
    /// The fault spec the run injected.
    pub spec: String,
    /// Which replica the plan killed (`None` if the site never fired).
    pub victim: Option<usize>,
    /// The mid-kill burst tallies.
    pub load: LoadgenReport,
    /// The guaranteed post-kill burst tallies.
    pub load_after_kill: LoadgenReport,
    /// The router's final stats line.
    pub router: crate::router::RouterStats,
    /// The invariant verdicts, in assertion order.
    pub invariants: Vec<Invariant>,
}

impl RouterChaosReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.held)
    }

    /// The report as JSON — `tpi-chaos --router --out` writes this, and
    /// CI commits it as `results/router_bench.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let invariants: Vec<Json> = self
            .invariants
            .iter()
            .map(|i| {
                Json::obj([
                    ("name", Json::from(i.name)),
                    ("held", Json::Bool(i.held)),
                    ("detail", Json::from(i.detail.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("spec", Json::from(self.spec.clone())),
            ("victim", self.victim.map_or(Json::Null, Json::from)),
            ("load", self.load.to_json()),
            ("load_after_kill", self.load_after_kill.to_json()),
            (
                "router",
                Json::obj([
                    (
                        "experiment_requests",
                        Json::from(self.router.experiment_requests),
                    ),
                    ("cells_forwarded", Json::from(self.router.cells_forwarded)),
                    ("cells_joined", Json::from(self.router.cells_joined)),
                    ("failovers", Json::from(self.router.failovers)),
                    (
                        "cells_unavailable",
                        Json::from(self.router.cells_unavailable),
                    ),
                    ("healthy_replicas", Json::from(self.router.healthy_replicas)),
                ]),
            ),
            ("invariants", Json::Arr(invariants)),
            ("passed", Json::Bool(self.passed())),
        ])
    }
}

impl std::fmt::Display for RouterChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[tpi-chaos --router] spec: {}", self.spec)?;
        match self.victim {
            Some(victim) => writeln!(f, "[tpi-chaos --router] victim: replica {victim}")?,
            None => writeln!(f, "[tpi-chaos --router] victim: none (site never fired)")?,
        }
        writeln!(
            f,
            "[tpi-chaos --router] burst: {} requests, {} ok, {} retries ({} io-level)",
            self.load.requests, self.load.ok, self.load.retries, self.load.io_retries
        )?;
        writeln!(
            f,
            "[tpi-chaos --router] post-kill burst: {} requests, {} ok, {} retries ({} io-level)",
            self.load_after_kill.requests,
            self.load_after_kill.ok,
            self.load_after_kill.retries,
            self.load_after_kill.io_retries
        )?;
        writeln!(f, "[tpi-chaos --router] {}", self.router)?;
        for inv in &self.invariants {
            writeln!(
                f,
                "[tpi-chaos --router] {} {}: {}",
                if inv.held { "PASS" } else { "FAIL" },
                inv.name,
                inv.detail
            )?;
        }
        write!(
            f,
            "[tpi-chaos --router] {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// One spawned `tpi-serve` child and what we know about it.
struct ReplicaProc {
    child: std::sync::Mutex<std::process::Child>,
    addr: SocketAddr,
    cache_dir: std::path::PathBuf,
}

/// Where the `tpi-serve` binary lives: explicit config, or next to the
/// current executable.
fn serve_binary(config: &RouterChaosConfig) -> Result<std::path::PathBuf, String> {
    if let Some(bin) = &config.serve_bin {
        return Ok(bin.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let sibling = me.with_file_name("tpi-serve");
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "cannot find tpi-serve next to {} — pass --serve-bin",
            me.display()
        ))
    }
}

/// Spawns one replica on an ephemeral port and parses its ready line.
fn spawn_replica(
    bin: &std::path::Path,
    cache_dir: &std::path::Path,
    workers: usize,
) -> Result<ReplicaProc, String> {
    let mut child = std::process::Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--cache-dir",
        ])
        .arg(cache_dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("no stdout pipe")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("reading ready line: {e}"))?;
    // "tpi-serve listening on http://HOST:PORT"
    let addr = line
        .rsplit("http://")
        .next()
        .and_then(|a| a.trim().parse::<SocketAddr>().ok())
        .ok_or_else(|| format!("bad ready line {line:?}"))?;
    Ok(ReplicaProc {
        child: std::sync::Mutex::new(child),
        addr,
        cache_dir: cache_dir.to_path_buf(),
    })
}

fn kill_replica(replica: &ReplicaProc) {
    let mut child = tpi::lock_unpoisoned(&replica.child);
    let _ = child.kill();
    let _ = child.wait();
}

/// Reads one counter out of a Prometheus text body.
fn metric_value(metrics_text: &str, name: &str) -> Option<u64> {
    metrics_text
        .lines()
        .find(|line| line.starts_with(name) && line[name.len()..].starts_with(' '))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn scrape(addr: SocketAddr) -> Option<String> {
    let response = loadgen::get(addr, "/metrics", Duration::from_secs(5)).ok()?;
    (response.status == 200).then(|| String::from_utf8_lossy(&response.body).into_owned())
}

/// Polls the router's `/healthz` until `healthy_replicas` reaches
/// `want`, within `deadline_in`.
fn wait_for_healthy(router_addr: SocketAddr, want: usize, deadline_in: Duration) -> bool {
    let deadline = std::time::Instant::now() + deadline_in;
    while std::time::Instant::now() < deadline {
        if let Ok(response) = loadgen::get(router_addr, "/healthz", Duration::from_secs(2)) {
            if let Ok(doc) = crate::json::parse(&String::from_utf8_lossy(&response.body)) {
                if doc
                    .get("healthy_replicas")
                    .and_then(crate::json::Json::as_u64)
                    == Some(want as u64)
                {
                    return true;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// The fixed grid the warm-restart phase replays directly against the
/// victim: warmed before the kill, it must come back byte-identical and
/// compute-free from the disk cache after the restart.
const WARMUP_BODY: &str =
    r#"{"kernels":["FLO52","OCEAN"],"schemes":["TPI","HW"],"opt_levels":["full"],"procs":[8]}"#;

/// Runs the replicated soak. See [`RouterChaosConfig`] and the module
/// docs; the headline invariant is that SIGKILLing a replica mid-burst
/// costs **zero** failed client requests.
///
/// # Errors
///
/// Fails on setup problems (missing binary, bad spec, bind failure) —
/// invariant violations are reported in the [`RouterChaosReport`].
#[allow(clippy::too_many_lines)]
pub fn run_router(config: &RouterChaosConfig) -> Result<RouterChaosReport, String> {
    let spec = config
        .spec
        .clone()
        .unwrap_or_else(|| default_router_spec(config.seed));
    let plan = Arc::new(FaultPlan::parse(&spec)?);
    let bin = serve_binary(config)?;
    let n = config.replicas.max(1);
    let root = config.cache_root.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "tpi-router-chaos-{}-{}",
            std::process::id(),
            config.seed
        ))
    });

    let mut replicas = Vec::with_capacity(n);
    for i in 0..n {
        replicas.push(spawn_replica(
            &bin,
            &root.join(format!("r{i}")),
            config.workers,
        )?);
    }
    let kill_fleet = |replicas: &[ReplicaProc]| {
        for replica in replicas {
            kill_replica(replica);
        }
    };

    // The victim is a pure function of the seed; warm its disk cache
    // directly (bypassing the router) and record the served bytes —
    // the warm-restart phase must reproduce them without computing.
    let victim = (config.seed % n as u64) as usize;
    let warm_before = match loadgen::post(
        replicas[victim].addr,
        "/v1/experiments",
        WARMUP_BODY,
        Duration::from_secs(60),
    ) {
        Ok(response) if response.status == 200 => response.body,
        Ok(response) => {
            kill_fleet(&replicas);
            return Err(format!("warmup returned {}", response.status));
        }
        Err(e) => {
            kill_fleet(&replicas);
            return Err(format!("warmup failed: {e}"));
        }
    };

    let router = crate::router::Router::start(crate::router::RouterConfig {
        replicas: replicas.iter().map(|r| r.addr).collect(),
        probe_interval: Duration::from_millis(150),
        lease: Duration::from_millis(700),
        max_attempts: 2 * n as u32,
        retry: RetryPolicy {
            budget: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            seed: config.seed,
        },
        ..crate::router::RouterConfig::default()
    })
    .map_err(|e| {
        kill_fleet(&replicas);
        format!("router bind failed: {e}")
    })?;
    let router_addr = router.addr();

    let load_config = LoadgenConfig {
        addr: router_addr,
        connections: config.connections,
        requests_per_connection: config.requests_per_connection,
        timeout: Duration::from_secs(30),
        retry: RetryPolicy {
            budget: 8,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            seed: config.seed,
        },
    };

    // Burst with the killer armed: once the router has seen traffic, the
    // plan's offset elapses and the victim is SIGKILLed mid-flight.
    let killed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let load = std::thread::scope(|scope| {
        let killer = {
            let plan = Arc::clone(&plan);
            let killed = Arc::clone(&killed);
            let victim_proc = &replicas[victim];
            scope.spawn(move || {
                if !plan.fires(FaultSite::ReplicaKill) {
                    return;
                }
                let offset = plan.site_arg_ms(FaultSite::ReplicaKill).unwrap_or(300);
                // Wait for the burst to actually be underway before the
                // offset starts counting, so a fast burst still dies
                // mid-flight rather than after the fact.
                let wait_deadline = std::time::Instant::now() + Duration::from_secs(10);
                while std::time::Instant::now() < wait_deadline {
                    let seen = scrape(router_addr)
                        .and_then(|m| metric_value(&m, "tpi_router_forward_attempts_total"))
                        .unwrap_or(0);
                    if seen > 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                std::thread::sleep(Duration::from_millis(offset));
                kill_replica(victim_proc);
                killed.store(true, std::sync::atomic::Ordering::Release);
            })
        };
        let load = loadgen::run(&load_config);
        killer.join().expect("killer thread");
        load
    });
    let kill_fired = killed.load(std::sync::atomic::Ordering::Acquire);

    // A second, smaller burst with the victim certainly dead: guarantees
    // post-kill traffic regardless of how the first burst raced the
    // killer, so the failover path is always exercised.
    let load_after_kill = loadgen::run(&LoadgenConfig {
        connections: 4,
        requests_per_connection: 3,
        ..load_config
    });

    let drained = kill_fired && wait_for_healthy(router_addr, n - 1, Duration::from_secs(10));

    // Warm restart: same binary, same --cache-dir. The replica must come
    // back serving the warmup grid byte-identically without recomputing
    // a single cell.
    let mut warm_detail = String::new();
    let warm_ok = kill_fired
        && match spawn_replica(&bin, &replicas[victim].cache_dir, config.workers) {
            Ok(restarted) => {
                let outcome = (|| -> Result<String, String> {
                    let response = loadgen::post(
                        restarted.addr,
                        "/v1/experiments",
                        WARMUP_BODY,
                        Duration::from_secs(60),
                    )
                    .map_err(|e| format!("restarted replica unreachable: {e}"))?;
                    if response.status != 200 {
                        return Err(format!("restarted replica returned {}", response.status));
                    }
                    if response.body != warm_before {
                        return Err("served bytes differ across the restart".to_owned());
                    }
                    let metrics =
                        scrape(restarted.addr).ok_or("restarted replica /metrics unreachable")?;
                    let computed =
                        metric_value(&metrics, "tpi_serve_cells_computed_total").unwrap_or(99);
                    let disk_hits =
                        metric_value(&metrics, "tpi_disk_cache_hits_total").unwrap_or(0);
                    if computed != 0 {
                        return Err(format!("{computed} cells recomputed after restart"));
                    }
                    if disk_hits == 0 {
                        return Err("no disk-cache hits after restart".to_owned());
                    }
                    Ok(format!(
                        "byte-identical, 0 recomputes, {disk_hits} disk hits"
                    ))
                })();
                kill_replica(&restarted);
                match outcome {
                    Ok(detail) => {
                        warm_detail = detail;
                        true
                    }
                    Err(e) => {
                        warm_detail = e;
                        false
                    }
                }
            }
            Err(e) => {
                warm_detail = format!("restart failed: {e}");
                false
            }
        };

    let router_inflight = router.inflight_cells();
    let stats = router.shutdown();
    kill_fleet(&replicas);
    if config.cache_root.is_none() {
        let _ = std::fs::remove_dir_all(&root);
    }

    let answered = |l: &LoadgenReport| {
        l.ok + l.invalid_bodies + l.io_errors + l.non_2xx.iter().map(|(_, c)| c).sum::<usize>()
    };
    let failed = |l: &LoadgenReport| l.requests - l.ok;
    let invariants = vec![
        Invariant {
            name: "replica kill fired",
            held: kill_fired,
            detail: if kill_fired {
                format!("replica {victim} SIGKILLed")
            } else {
                "the replica_kill site never fired".to_owned()
            },
        },
        Invariant {
            name: "zero failed client requests across replica death",
            held: failed(&load) == 0 && failed(&load_after_kill) == 0,
            detail: format!(
                "{}+{} failed of {}+{}",
                failed(&load),
                failed(&load_after_kill),
                load.requests,
                load_after_kill.requests
            ),
        },
        Invariant {
            name: "every request terminally answered",
            held: answered(&load) == load.requests
                && answered(&load_after_kill) == load_after_kill.requests,
            detail: format!(
                "{}+{} accounted for",
                answered(&load),
                answered(&load_after_kill)
            ),
        },
        Invariant {
            name: "failover engaged",
            held: stats.failovers > 0,
            detail: format!(
                "{} failovers, {} cells forwarded",
                stats.failovers, stats.cells_forwarded
            ),
        },
        Invariant {
            name: "dead replica drained from the ring",
            held: drained,
            detail: if drained {
                format!("{} of {n} replicas healthy after lease expiry", n - 1)
            } else {
                "victim still marked healthy past the lease".to_owned()
            },
        },
        Invariant {
            name: "no wedged router slots after drain",
            held: router_inflight == 0,
            detail: format!("{router_inflight} cells still in flight"),
        },
        Invariant {
            name: "killed replica restarts warm from its disk cache",
            held: warm_ok,
            detail: warm_detail,
        },
    ];

    Ok(RouterChaosReport {
        spec,
        victim: kill_fired.then_some(victim),
        load,
        load_after_kill,
        router: stats,
        invariants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_parses_and_arms_every_site() {
        let plan = FaultPlan::parse(&default_spec(7)).unwrap();
        assert_eq!(plan.seed(), 7);
        // Smoke the grammar: at rate > 0 every site *can* fire; just
        // check a high-rate one actually does within a few hundred draws.
        let fired = (0..500).filter(|_| plan.fires(FaultSite::Overload)).count();
        assert!(fired > 10, "{fired} overload fires at rate 0.1");
    }

    #[test]
    fn a_tiny_chaos_run_passes_its_invariants() {
        // Keep it small: this is the in-tree smoke of the same harness
        // CI runs at full size.
        let report = run(&ChaosConfig {
            seed: 11,
            connections: 3,
            requests_per_connection: 2,
            workers: 2,
            queue_cap: 32,
            spec: None,
        })
        .expect("chaos harness sets up");
        assert!(report.passed(), "{report}");
        assert_eq!(report.load.requests, 6);
    }
}
