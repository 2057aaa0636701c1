//! The `serve` workload: two replicas with disk caches behind one router,
//! all in this process, driven by the benchmark's own client
//! ([`crate::client`]) on two connections.
//!
//! Set-up starts the fleet, waits for two healthy replicas and sends the
//! six `loadgen::templates()` requests (16 cells), so those cells are
//! cached. Three phases follow, all sending the template requests, the
//! repository's only client traffic (one to four cells each, fanned out
//! by the router to the replicas that own them):
//!
//! * hot — an open loop at 20 requests/s for 15 s (at `--seconds 20`),
//!   each request timed from when it was due;
//! * hot saturation — the same requests in a closed loop for 5 s;
//! * cold — a closed loop of 200 template requests, each with a unique
//!   `"seed"`, so every cell misses every cache and is computed and
//!   persisted.

use crate::client::{arrivals, balanced, drive, one_client, Conn, Pace, Phase};
use crate::gauge::Gauge;
use crate::metrics::{Metrics, Outcome};
use crate::sim::{self, Cell};
use crate::span::Tracer;
use crate::stats::{below, mean, median, ms, peak_rss_mb, permutation, quantile, rng, Rng};
use crate::{layers, Opts};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi::ExperimentConfig;
use tpi_serve::json::{parse, Json};
use tpi_serve::wire::{render_cell, CellKey, GridRequest};
use tpi_serve::{loadgen, DiskCache, Router, RouterConfig, ServeConfig, Server};

/// Think time of the single-client loops, from one answer to the next
/// request: longer than the 40 ms for which the client's kernel may hold
/// back the ACK of an answer it replies to quickly, so no request starts
/// behind a delayed ACK.
const THINK: Duration = Duration::from_millis(50);
/// Hot and cold single-client requests per second of `--seconds`, and the
/// saturation loop's share of it: 150 hot and 100 cold requests and 4 s at
/// `--seconds 20`.
const HOT_PER_SECOND: f64 = 7.5;
const COLD_PER_SECOND: f64 = 5.0;
const SATURATION_SHARE: f64 = 0.2;
/// Fleet set-ups per run.
const SETUPS: usize = 3;
/// Arrival rate of the traced run's open loop, requests per second, and
/// its length in seconds.
const OPEN_RPS: f64 = 20.0;
const OPEN_SECONDS: f64 = 10.0;
/// The latency limit of the rate ladder: p95 from due time.
const LADDER_P95_MS: f64 = 100.0;
/// Seed of the open loops' arrival times, the same for every run.
const SCHEDULE_SEED: u64 = 0x5EED;
/// Span ids of probe requests start here, clear of workload ids.
const PROBE_ID: u64 = 1 << 41;

/// Two replicas (one worker each, disk cache in a fresh directory) behind
/// one router: the replication set-up of the README.
pub struct Fleet {
    pub replicas: Vec<Server>,
    pub router: Router,
    dir: PathBuf,
}

impl Fleet {
    pub fn start(dir: PathBuf) -> io::Result<Fleet> {
        let mut replicas = Vec::new();
        for i in 0..2 {
            replicas.push(Server::start(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
                cache_dir: Some(dir.join(format!("replica-{i}"))),
                ..ServeConfig::default()
            })?);
        }
        let router = Router::start(RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            replicas: replicas.iter().map(Server::addr).collect(),
            ..RouterConfig::default()
        })?;
        let fleet = Fleet {
            replicas,
            router,
            dir,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut conn = Conn::open(fleet.addr())?;
        loop {
            let reply = conn.call("GET", "/healthz", "")?;
            let healthy = parse(&String::from_utf8_lossy(&reply.body))
                .ok()
                .and_then(|doc| doc.get("healthy_replicas").and_then(Json::as_u64));
            if healthy == Some(2) {
                return Ok(fleet);
            }
            if Instant::now() > deadline {
                fleet.shutdown();
                return Err(io::Error::other("replicas never became healthy"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Stops the router, then the replicas (each joins its threads), and
    /// removes the cache directories.
    pub fn shutdown(self) {
        let _ = self.router.shutdown();
        for replica in self.replicas {
            let _ = replica.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The template requests, their cells, and what each must serve.
pub struct Templates {
    /// The six grid requests of `loadgen::templates()`.
    pub bodies: Vec<String>,
    /// Expected response bytes per template: in-process serial `Runner`
    /// results rendered through `wire::render_cell`.
    pub expected: Vec<Vec<u8>>,
    /// Cells per template.
    pub sizes: Vec<usize>,
    /// The templates' 16 cells, in template order.
    pub keys: Vec<CellKey>,
    /// Each cell rendered as the service renders it.
    pub rendered: Vec<Json>,
    /// One single-cell request per cell: what the router forwards to the
    /// replica that owns the cell.
    pub cell_bodies: Vec<String>,
}

/// A grid response body, byte for byte as the service renders it.
pub fn grid_body(cells: &[Json]) -> Vec<u8> {
    Json::obj([
        ("cells", Json::Arr(cells.to_vec())),
        ("count", Json::from(cells.len())),
    ])
    .render()
    .into_bytes()
}

fn render_in_process(key: &CellKey) -> Json {
    let config = key.config().expect("template cells are valid");
    let result = sim::pinned_runner(1)
        .run_kernel(key.kernel, key.scale, &config)
        .expect("template cells are race-free");
    render_cell(key, &result)
}

/// The cells a grid request body expands to, in response order.
fn grid_cells(body: &str) -> Vec<CellKey> {
    GridRequest::parse(&parse(body).expect("templates are JSON"))
        .expect("templates are valid")
        .cells()
}

/// What a grid request must be answered with, computed in process.
fn expected_body(body: &str) -> Vec<u8> {
    let cells: Vec<Json> = grid_cells(body).iter().map(render_in_process).collect();
    grid_body(&cells)
}

pub fn templates() -> Templates {
    let bodies: Vec<String> = loadgen::templates()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let grids: Vec<Vec<CellKey>> = bodies.iter().map(|b| grid_cells(b)).collect();
    let sizes: Vec<usize> = grids.iter().map(Vec::len).collect();
    let keys: Vec<CellKey> = grids.into_iter().flatten().collect();
    let rendered: Vec<Json> = keys.iter().map(render_in_process).collect();
    let mut at = 0;
    let expected = sizes
        .iter()
        .map(|&n| {
            at += n;
            grid_body(&rendered[at - n..at])
        })
        .collect();
    Templates {
        cell_bodies: keys.iter().map(CellKey::single_cell_body).collect(),
        bodies,
        expected,
        sizes,
        keys,
        rendered,
    }
}

/// A fresh scratch directory inside the build directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    crate::work_dir().join("tpi-perf-scratch").join(format!(
        "{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Sends every template to `addr` once, on one connection.
fn warm(addr: SocketAddr, t: &Templates) -> io::Result<()> {
    let mut conn = Conn::open(addr)?;
    for body in &t.bodies {
        let reply = conn.call("POST", "/v1/experiments", body)?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up request answered {}",
                reply.status
            )));
        }
    }
    Ok(())
}

/// Starts a fleet and warms it through the router.
fn set_up(t: &Templates) -> io::Result<Fleet> {
    let fleet = Fleet::start(scratch_dir("fleet"))?;
    match warm(fleet.addr(), t) {
        Ok(()) => Ok(fleet),
        Err(e) => {
            fleet.shutdown();
            Err(e)
        }
    }
}

/// A template request under its own `"seed"`.
fn with_seed(body: &str, seed: u64) -> String {
    let Ok(Json::Obj(mut members)) = parse(body) else {
        panic!("templates are JSON objects");
    };
    members.retain(|(k, _)| k != "seed");
    members.push(("seed".to_owned(), Json::from(seed)));
    Json::Obj(members).render()
}

/// Cold requests: the templates, each equally often, each under a seed no
/// other request uses, so none of its cells is cached anywhere. Returns
/// the bodies and each one's template index.
fn cold_requests(rng: &mut Rng, t: &Templates, n: usize) -> (Vec<String>, Vec<usize>) {
    let base = 1 + (rng.next_u64() >> 24);
    let kinds = balanced(rng, t.bodies.len(), n);
    let bodies = kinds
        .iter()
        .enumerate()
        .map(|(k, &i)| with_seed(&t.bodies[i], base + k as u64))
        .collect();
    (bodies, kinds)
}

/// Counts answers whose bytes differ from what their cell must serve.
fn wrong_answers(phase: &Phase, seq: &[usize], expected: &[Vec<u8>]) -> usize {
    phase
        .samples
        .iter()
        .filter(|s| s.status == 200 && s.body != expected[seq[s.index % seq.len()]])
        .count()
}

pub fn run(opts: &Opts) -> Outcome {
    let tpl = templates();
    let mut gauge = Gauge::new();
    let mut setups = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..SETUPS {
        if let Some(old) = fleet.take() {
            old.shutdown();
        }
        let (ms, started) = gauge.time(|| set_up(&tpl));
        setups.push(ms / 1e3);
        fleet = Some(started.expect("the fleet starts"));
    }
    let fleet = fleet.expect("the set-ups ran");
    let mut r = rng(opts.seed, 10);
    let s = opts.seconds;
    let requests = |seq: &[usize]| {
        seq.iter()
            .map(|&i| tpl.bodies[i].as_str())
            .collect::<Vec<_>>()
    };

    let n_hot = ((HOT_PER_SECOND * s) as usize).max(tpl.bodies.len());
    let hot_seq = balanced(&mut r, tpl.bodies.len(), n_hot);
    let hot = one_client(fleet.addr(), &requests(&hot_seq), THINK, &mut gauge);

    let sat_seq = balanced(&mut r, tpl.bodies.len(), 4 * tpl.bodies.len());
    let sat = drive(
        fleet.addr(),
        &requests(&sat_seq),
        &Pace::For(SATURATION_SHARE * s),
    );

    let n_cold = ((COLD_PER_SECOND * s) as usize).max(tpl.bodies.len());
    let (cold, kinds) = cold_requests(&mut r, &tpl, n_cold);
    let cold_bodies: Vec<&str> = cold.iter().map(String::as_str).collect();
    let cold_phase = one_client(fleet.addr(), &cold_bodies, THINK, &mut gauge);
    fleet.shutdown();

    // Correctness, untimed: every hot answer, and eight sampled cold
    // answers, byte-identical to in-process serial Runner cells.
    let mut out = Outcome::default();
    for (phase, seq, name) in [(&hot, &hot_seq, "hot"), (&sat, &sat_seq, "saturation")] {
        let wrong = wrong_answers(phase, seq, &tpl.expected);
        out.check(wrong == 0, || {
            format!("{wrong} {name} answers differ from the in-process cells")
        });
    }
    let mut pick = rng(opts.seed, 11);
    for _ in 0..8 {
        let i = below(&mut pick, cold.len());
        let served = cold_phase.samples.iter().find(|s| s.index == i);
        out.check(
            served.is_some_and(|s| s.body == expected_body(&cold[i])),
            || format!("cold request {i} was not answered with the in-process cells"),
        );
    }

    out.attempted = hot.attempted() + sat.attempted() + cold_phase.attempted();
    out.failed = hot.failed() + sat.failed() + cold_phase.failed();
    let ok = |phase: &Phase| -> Vec<(usize, f64)> {
        phase
            .samples
            .iter()
            .filter(|s| s.status == 200)
            .map(|s| (s.index, s.cpu_ms))
            .collect()
    };
    let hot_ms: Vec<f64> = ok(&hot).into_iter().map(|(_, ms)| ms).collect();
    // The router resolves a request's cells one after another, so a cold
    // request's cost per cell is comparable across one- to four-cell
    // templates.
    let cold_ok = ok(&cold_phase);
    let cold_cell_ms: Vec<f64> = cold_ok
        .iter()
        .map(|&(i, ms)| ms / tpl.sizes[kinds[i]] as f64)
        .collect();
    let cold_cells: usize = cold_ok.iter().map(|&(i, _)| tpl.sizes[kinds[i]]).sum();
    let cold_ms: f64 = cold_ok.iter().map(|&(_, ms)| ms).sum();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("cells_per_s", cold_cells as f64 * 1e3 / cold_ms);
    m.set("cell_ms_p50", quantile(&cold_cell_ms, 0.5));
    m.set("cell_ms_p90", quantile(&cold_cell_ms, 0.9));
    m.set("hot_ms_p50", quantile(&hot_ms, 0.5));
    m.set("hot_ms_p90", quantile(&hot_ms, 0.9));
    m.set("hot_rps", sat.latencies().len() as f64 / sat.elapsed);
    let wall = |phase: &Phase| {
        let l = phase.latencies();
        format!(
            "{} requests, wall p50 {:.2} ms, p90 {:.2} ms",
            l.len(),
            quantile(&l, 0.5),
            quantile(&l, 0.9)
        )
    };
    eprintln!(
        "[hot {}; cold {}; saturation {} in {:.1} s]",
        wall(&hot),
        wall(&cold_phase),
        sat.samples.len(),
        sat.elapsed
    );
    out
}

/// Mean microseconds per call of `f`, over enough calls to last ~20 ms.
fn micros(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 10 || started.elapsed() < Duration::from_millis(20) {
        f();
        calls += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Median latency of `n` back-to-back requests on one connection.
fn closed_p50(
    t: &Tracer,
    addr: SocketAddr,
    method: &str,
    path: &str,
    bodies: &[String],
    n: usize,
) -> f64 {
    let mut conn = Conn::open(addr).expect("the fleet accepts connections");
    let mut lat = Vec::with_capacity(n);
    for k in 0..n {
        let body = bodies
            .get(k % bodies.len().max(1))
            .map_or("", String::as_str);
        let started = Instant::now();
        let reply = t.span("serve", "client request", PROBE_ID + k as u64, || {
            conn.call(method, path, body)
        });
        if reply.is_ok_and(|r| r.status == 200) {
            lat.push(ms(started.elapsed()));
        }
    }
    median(&lat)
}

/// A counter from a replica's `/metrics` page.
fn scrape(addr: SocketAddr, name: &str) -> f64 {
    let Ok(reply) = Conn::open(addr).and_then(|mut c| c.call("GET", "/metrics", "")) else {
        return 0.0;
    };
    String::from_utf8_lossy(&reply.body)
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The serve layer's per-layer metrics, measured on a warmed `fleet`.
pub fn fleet_probe(t: &Tracer, fleet: &Fleet, tpl: &Templates, seed: u64) -> Metrics {
    use std::hint::black_box;
    let mut m = Metrics::default();
    let id = PROBE_ID;
    // The code paths a replica takes for one cell the router forwards to
    // it, each timed on its own.
    let docs: Vec<Json> = tpl
        .cell_bodies
        .iter()
        .map(|b| parse(b).expect("cell bodies are JSON"))
        .collect();
    let parse_us = t.span("serve", "json::parse", id, || {
        mean(
            &tpl.cell_bodies
                .iter()
                .map(|b| micros(|| drop(black_box(parse(b)))))
                .collect::<Vec<_>>(),
        )
    });
    let plan_us = t.span("serve", "GridRequest::parse", id, || {
        let plan = |d: &Json| micros(|| drop(black_box(GridRequest::parse(d).map(|g| g.cells()))));
        mean(&docs.iter().map(plan).collect::<Vec<_>>())
    });
    let mut results = Vec::new();
    let compute_ms: Vec<f64> = tpl
        .keys
        .iter()
        .map(|key| {
            let config = key.config().expect("template cells are valid");
            let started = Instant::now();
            results.push(t.span("core", "Runner::run_kernel", id, || {
                sim::pinned_runner(1)
                    .run_kernel(key.kernel, key.scale, &config)
                    .expect("template cells are race-free")
            }));
            ms(started.elapsed())
        })
        .collect();
    let render_us = t.span("serve", "wire::render_cell", id, || {
        let render = |(k, r)| micros(|| drop(black_box(render_cell(k, r).render())));
        mean(
            &tpl.keys
                .iter()
                .zip(&results)
                .map(render)
                .collect::<Vec<_>>(),
        )
    });
    let write_us = t.span("serve", "http::write_response", id, || {
        let write = |cell: &Json| {
            let body = grid_body(std::slice::from_ref(cell));
            let mut sink = Vec::with_capacity(body.len() + 256);
            micros(|| {
                sink.clear();
                let r = tpi_serve::http::write_response(
                    &mut sink,
                    200,
                    "application/json",
                    &body,
                    &[],
                    true,
                );
                black_box((r.is_ok(), &sink));
            })
        };
        mean(&tpl.rendered.iter().map(write).collect::<Vec<_>>())
    });
    let dir = scratch_dir("disk");
    let (disk, _) =
        DiskCache::open(&dir, None, Arc::default()).expect("the scratch directory is writable");
    let put_ms: Vec<f64> = tpl
        .keys
        .iter()
        .zip(&results)
        .map(|(k, r)| {
            let payload = render_cell(k, r).render();
            let started = Instant::now();
            t.span("serve", "DiskCache::put", id, || disk.put(k, &payload));
            ms(started.elapsed())
        })
        .collect();
    let get_us = t.span("serve", "DiskCache::get", id, || {
        mean(
            &tpl.keys
                .iter()
                .map(|k| micros(|| drop(black_box(disk.get(k)))))
                .collect::<Vec<_>>(),
        )
    });
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);

    // Replica floor: warm replica 0 directly, then time cached requests
    // and health checks on it; then the same requests via the router.
    let replica = fleet.replicas[0].addr();
    warm(replica, tpl).expect("the replica answers the templates");
    let replica_p50 = closed_p50(t, replica, "POST", "/v1/experiments", &tpl.cell_bodies, 32);
    let healthz_p50 = closed_p50(t, replica, "GET", "/healthz", &[], 16);
    let router_p50 = closed_p50(
        t,
        fleet.addr(),
        "POST",
        "/v1/experiments",
        &tpl.cell_bodies,
        32,
    );
    let code_ms = (parse_us + plan_us + render_us + write_us) / 1e3;

    // The open loop of the hot template requests at 20 requests/s, each
    // timed from when it was due, then a rate ladder: the highest of 20,
    // 40 and 80 requests/s whose p95 from due time stays under the limit.
    let mut r = rng(seed, 20);
    let mut open = (0.0, 0.0, 0.0);
    let mut max_rps = 0.0;
    for (rate, seconds) in [
        (OPEN_RPS, OPEN_SECONDS),
        (2.0 * OPEN_RPS, 2.0),
        (4.0 * OPEN_RPS, 2.0),
    ] {
        let due = arrivals(&mut rng(SCHEDULE_SEED, 20), rate, seconds);
        let seq = balanced(&mut r, tpl.bodies.len(), due.len());
        let bodies: Vec<&str> = seq.iter().map(|&i| tpl.bodies[i].as_str()).collect();
        let rung = drive(fleet.addr(), &bodies, &Pace::Due(&due));
        let latencies = rung.latencies();
        if rate == OPEN_RPS {
            let late: Vec<f64> = rung.samples.iter().map(|s| s.lateness_ms).collect();
            open = (
                quantile(&latencies, 0.5),
                quantile(&latencies, 0.95),
                quantile(&late, 0.95),
            );
        }
        if rung.failed() > 0 || quantile(&latencies, 0.95) > LADDER_P95_MS {
            break;
        }
        max_rps = rate;
    }

    let sum = |name: &str| {
        fleet
            .replicas
            .iter()
            .map(|r| scrape(r.addr(), name))
            .sum::<f64>()
    };
    let computed = sum("tpi_serve_cells_computed_total");
    let cached = sum("tpi_serve_cells_cached_total");
    let joined = sum("tpi_serve_cells_joined_total");

    m.set("serve.json.parse_us", parse_us);
    m.set("serve.wire.plan_us", plan_us);
    m.set("serve.wire.render_us", render_us);
    m.set("serve.http.write_response_us", write_us);
    m.set("serve.disk.put_ms", median(&put_ms));
    m.set("serve.disk.get_us", get_us);
    m.set("serve.compute_ms", median(&compute_ms));
    m.set("serve.replica.hot_p50_ms", replica_p50);
    m.set("serve.replica.healthz_p50_ms", healthz_p50);
    m.set("serve.router.forward_ms", router_p50 - replica_p50);
    m.set("serve.unexplained_hot_ms", replica_p50 - code_ms);
    m.set("serve.open.hot_p50_ms", open.0);
    m.set("serve.open.hot_p95_ms", open.1);
    m.set("serve.client.lateness_p95_ms", open.2);
    m.set("serve.hot_max_rps", max_rps);
    m.set("serve.cells_computed", computed);
    m.set("serve.cells_cached", cached);
    m.set("serve.cells_joined", joined);
    m.set(
        "serve.cache_hit_ratio",
        cached / (computed + cached + joined).max(1.0),
    );
    m
}

/// The serve layer's metrics for a workload that does not serve: a fresh
/// fleet, warmed, probed, and shut down.
pub fn probe_fresh(t: &Tracer, seed: u64) -> Metrics {
    let tpl = templates();
    let fleet = set_up(&tpl).expect("the fleet starts");
    let m = fleet_probe(t, &fleet, &tpl, seed);
    fleet.shutdown();
    m
}

/// The traced run of `serve`: the same cached requests untraced and then
/// traced, eight traced cold requests, the fleet probe, and the template
/// cells through the Runner and through the layers directly.
pub fn trace(opts: &Opts, t: &Tracer) -> Outcome {
    let tpl = templates();
    let fleet = set_up(&tpl).expect("the fleet starts");
    let n = ((3.0 * opts.seconds) as usize).max(tpl.bodies.len());
    let seq = balanced(&mut rng(opts.seed, 30), tpl.bodies.len(), n);
    let mut conn = Conn::open(fleet.addr()).expect("the router accepts connections");
    let mut wrong = 0;
    let mut failed = 0;
    let mut pass = |traced: bool| {
        let started = Instant::now();
        for (k, &i) in seq.iter().enumerate() {
            let mut call = || conn.call("POST", "/v1/experiments", &tpl.bodies[i]);
            let reply = if traced {
                t.span("serve", "POST /v1/experiments", k as u64, call)
            } else {
                call()
            };
            match reply {
                Ok(r) if r.status == 200 => wrong += usize::from(r.body != tpl.expected[i]),
                _ => failed += 1,
            }
        }
        ms(started.elapsed())
    };
    let plain_ms = pass(false);
    let traced_ms = pass(true);
    let (cold, _) = cold_requests(&mut rng(opts.seed, 31), &tpl, 8);
    for (k, body) in cold.iter().enumerate() {
        let reply = t.span(
            "serve",
            "POST /v1/experiments (cold)",
            (1 << 20) + k as u64,
            || conn.call("POST", "/v1/experiments", body),
        );
        failed += u64::from(!reply.is_ok_and(|r| r.status == 200));
    }
    drop(conn);
    let probe = fleet_probe(t, &fleet, &tpl, opts.seed);
    fleet.shutdown();

    let cells: Vec<Cell> = tpl
        .keys
        .iter()
        .map(|k| Cell {
            kernel: k.kernel,
            scale: k.scale,
            config: k.config().expect("template cells are valid"),
        })
        .collect();
    let order = permutation(&mut rng(opts.seed, 32), cells.len());
    let (mut out, _, _) = sim::cell_layers(t, &cells, &order);
    out.check(wrong == 0, || {
        format!("{wrong} traced answers differ from the in-process cells")
    });
    out.attempted += 2 * n as u64 + 8;
    out.failed += failed;
    out.metrics
        .set("trace_overhead_pct", 100.0 * (traced_ms / plain_ms - 1.0));
    out.metrics.extend(probe);
    let probe_cell = Cell {
        config: ExperimentConfig::paper(),
        ..cells[0]
    };
    out.metrics.extend(layers::sim_probe(
        t,
        &layers::ProbeSpec {
            cell: probe_cell,
            shard_cell: probe_cell,
        },
    ));
    out
}
