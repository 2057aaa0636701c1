//! `tpi-router` — a replicating HTTP front for a fleet of `tpi-serve`
//! replicas.
//!
//! ```text
//! clients ──► service skeleton ──► per-cell placement (hash ring)
//!                                        │ global single-flight
//!                                        ▼
//!                      replica A ◄── forward with per-attempt deadline
//!                      replica B ◄── failover on connect error / 5xx
//!                      replica C ◄── (jittered backoff between tries)
//!                          ▲
//!                  health prober (lease: miss it → draining)
//! ```
//!
//! The router owns three jobs and deliberately nothing else:
//!
//! 1. **Placement.** Every cell key hashes onto a consistent-hash ring
//!    ([`VNODES`] virtual nodes per replica), so identical cells always
//!    prefer the same replica and its memory/disk caches stay hot. When
//!    a replica dies, only its arc of the ring moves.
//! 2. **Health.** A prober thread `GET /healthz`s every replica each
//!    [`RouterConfig::probe_interval`]. A replica that has not answered
//!    within [`RouterConfig::lease`] is marked *draining*: it receives
//!    no new cells until a probe succeeds again. Probing is the only
//!    thing that changes health — forwarding failures just fail over,
//!    so one flaky connection can't flap the ring.
//! 3. **Failover.** A forward that dies on the socket or returns a 5xx
//!    is retried on the next healthy replica in ring order, with the
//!    same full-jitter backoff the load generator uses. Killing a
//!    replica mid-burst therefore costs latency, never correctness:
//!    `tpi-chaos --router` asserts exactly zero failed client requests.
//!
//! Forwards travel on pooled keep-alive connections with `TCP_NODELAY`
//! set: each replica keeps a stack of idle ones, a forward borrows one
//! (or connects when the stack is empty) and returns it after a complete
//! exchange unless the replica answered `connection: close`. A borrowed
//! connection the replica closed while it sat idle (a restart, a
//! shutdown) fails before its status line arrives — the write fails, or
//! the stream ends or is reset. That is no answer from the replica, so
//! the forward goes once more on a fresh connection, and the retry counts
//! as neither an attempt nor a failover; a timeout still counts.
//!
//! Identical in-flight cells are deduplicated *globally* at the router
//! (one upstream forward no matter how many clients ask), which is
//! strictly stronger than each replica's own single-flight table; both
//! tables hold the same [`FlightSlot`] type. The router keeps no result
//! cache — replicas own caching (memory LRU over the crash-safe disk
//! store, see [`crate::disk`]) — so a replica restart's warmness stays
//! observable end to end.
//!
//! When every replica is draining the router answers `503` with code
//! `all_replicas_draining` and a `Retry-After` header: an explicit,
//! immediate "come back later", never a hang.

use crate::disk::fnv1a;
use crate::fault::splitmix64;
use crate::http::{self, is_timeout, read_response};
use crate::json::{parse, Json};
use crate::loadgen::{self, write_request, RetryPolicy};
use crate::pool::FlightSlot;
use crate::service::{Handler, Response, Service};
use crate::wire::{error_body, CellKey, GridRequest};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tpi::lock_unpoisoned;

/// Virtual nodes per replica on the consistent-hash ring. 64 keeps the
/// arc sizes within a few percent of even for small fleets while the
/// ring stays tiny (3 replicas → 192 points).
pub const VNODES: usize = 64;

/// Everything tunable about one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address. Port 0 asks the OS for an ephemeral port; the
    /// bound address is reported by [`Router::addr`].
    pub addr: String,
    /// The replica fleet. Fixed for the router's lifetime; *health* is
    /// dynamic, membership is not.
    pub replicas: Vec<SocketAddr>,
    /// How often the prober `GET /healthz`s each replica.
    pub probe_interval: Duration,
    /// A replica that has not answered a probe within this window is
    /// marked draining and its hash range reassigned.
    pub lease: Duration,
    /// Socket timeout (connect/read/write) for one forward attempt.
    pub attempt_timeout: Duration,
    /// Forward attempts per cell before giving up with 503
    /// `upstream_unavailable`.
    pub max_attempts: u32,
    /// Jittered backoff between forward attempts (the same policy the
    /// load generator uses; `Retry-After` from replicas is honored).
    pub retry: RetryPolicy,
    /// Per-request deadline: a request whose cells haven't all resolved
    /// by then gets a 504.
    pub request_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Largest grid a single request may expand to.
    pub max_cells_per_request: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_owned(),
            replicas: Vec::new(),
            probe_interval: Duration::from_millis(500),
            lease: Duration::from_millis(2500),
            attempt_timeout: Duration::from_secs(10),
            max_attempts: 4,
            retry: RetryPolicy::default(),
            request_timeout: Duration::from_secs(60),
            max_body_bytes: 1024 * 1024,
            max_cells_per_request: 1024,
        }
    }
}

/// The final stats line a graceful shutdown reports.
#[derive(Debug, Clone, Copy)]
pub struct RouterStats {
    /// Requests served on the experiments endpoint.
    pub experiment_requests: u64,
    /// Cells resolved by an upstream forward this router led.
    pub cells_forwarded: u64,
    /// Cells that joined an identical in-flight forward (global
    /// single-flight).
    pub cells_joined: u64,
    /// Forward attempts that failed and moved to another replica.
    pub failovers: u64,
    /// Cells that exhausted every attempt (`upstream_unavailable`).
    pub cells_unavailable: u64,
    /// Requests refused because every replica was draining.
    pub rejected_draining: u64,
    /// Replicas healthy at shutdown.
    pub healthy_replicas: usize,
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[tpi-router final: {} experiment requests; cells {} forwarded / {} joined; \
             {} failovers / {} unavailable; {} refused draining; {} replicas healthy]",
            self.experiment_requests,
            self.cells_forwarded,
            self.cells_joined,
            self.failovers,
            self.cells_unavailable,
            self.rejected_draining,
            self.healthy_replicas,
        )
    }
}

/// One replica's dynamic health state and its idle connections.
/// `last_ok` starts at router boot so a fresh fleet gets a full lease of
/// grace before the first verdict.
struct Replica {
    addr: SocketAddr,
    healthy: AtomicBool,
    last_ok: Mutex<Instant>,
    /// Idle keep-alive connections, the most recently returned on top.
    idle: Mutex<Vec<TcpStream>>,
}

impl Replica {
    /// Sends one single-cell request to this replica and reads its
    /// answer, on an idle pooled connection if there is one. A pooled
    /// connection the replica has closed is dropped, and the request goes
    /// once more on a fresh connection (see the module docs).
    fn forward(&self, body: &str, timeout: Duration) -> io::Result<http::Response> {
        let pooled = lock_unpoisoned(&self.idle).pop();
        if let Some(stream) = pooled {
            if let Some(response) = self.exchange(stream, body, timeout)? {
                return Ok(response);
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        stream.set_nodelay(true)?;
        self.exchange(stream, body, timeout)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionReset,
                "the replica closed the connection without answering",
            )
        })
    }

    /// One request/response exchange on `stream`, which goes back on the
    /// idle stack only after a complete response that keeps it alive.
    /// `Ok(None)` means the connection was already closed: the write
    /// failed, or the stream ended or was reset before the first response
    /// byte. A timeout is an error.
    fn exchange(
        &self,
        stream: TcpStream,
        body: &str,
        timeout: Duration,
    ) -> io::Result<Option<http::Response>> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let mut reader = BufReader::new(&stream);
        let answered = write_request(&mut &stream, "POST", "/v1/experiments", body)
            .and_then(|()| reader.fill_buf().map(|bytes| !bytes.is_empty()));
        match answered {
            Ok(true) => {}
            Err(e) if is_timeout(&e) => return Err(e),
            Ok(false) | Err(_) => return Ok(None),
        }
        let response = read_response(&mut reader)?;
        let close = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        // Bytes past the response would be read as the next exchange's
        // answer, so such a connection is not reused.
        if !close && reader.buffer().is_empty() {
            drop(reader);
            lock_unpoisoned(&self.idle).push(stream);
        }
        Ok(Some(response))
    }
}

/// How one cell's forward resolved. `Cell` is the happy path: the
/// replica's rendered cell object, spliced verbatim into the response
/// (parse→render is byte-stable, so routed bytes equal direct bytes).
#[derive(Debug)]
enum CellReply {
    Cell(Json),
    /// A terminal upstream response (e.g. a structured per-cell 4xx/5xx
    /// that retrying cannot fix) to relay as the whole response.
    Relay {
        status: u16,
        body: String,
    },
    /// Every attempt failed (socket error or retryable 5xx each time).
    Unavailable,
    /// No healthy replica existed when the cell needed one.
    AllDraining,
}

/// Fixed-shape router counters, rendered on `GET /metrics`.
#[derive(Default)]
struct RouterMetrics {
    experiment_requests: AtomicU64,
    cells_forwarded: AtomicU64,
    cells_joined: AtomicU64,
    forward_attempts: AtomicU64,
    failovers: AtomicU64,
    cells_unavailable: AtomicU64,
    rejected_draining: AtomicU64,
    probes_ok: AtomicU64,
    probes_failed: AtomicU64,
    bad_requests: AtomicU64,
    rejected_timeout: AtomicU64,
}

/// The consistent-hash ring. Membership is static, so it is built once.
struct Ring {
    /// `(point, replica index)` sorted by point.
    points: Vec<(u64, usize)>,
    replicas: usize,
}

impl Ring {
    fn new(replicas: &[SocketAddr]) -> Ring {
        let mut points = Vec::with_capacity(replicas.len() * VNODES);
        for (index, addr) in replicas.iter().enumerate() {
            let mut point = fnv1a(addr.to_string().as_bytes());
            for _ in 0..VNODES {
                point = splitmix64(point);
                points.push((point, index));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            replicas: replicas.len(),
        }
    }

    /// The replica preference order for `key`: ring order starting at
    /// the cell's hash point, each replica once. Health is filtered at
    /// attempt time, not here, so failover and re-probe compose.
    fn placement(&self, key: &CellKey) -> Vec<usize> {
        let hash = splitmix64(fnv1a(key.canonical().as_bytes()));
        let start = self.points.partition_point(|&(point, _)| point < hash);
        let mut order = Vec::with_capacity(self.replicas);
        for i in 0..self.points.len() {
            let (_, replica) = self.points[(start + i) % self.points.len()];
            if !order.contains(&replica) {
                order.push(replica);
                if order.len() == self.replicas {
                    break;
                }
            }
        }
        order
    }
}

struct RouterShared {
    service: Arc<Service>,
    config: RouterConfig,
    replicas: Vec<Replica>,
    ring: Ring,
    inflight: Mutex<HashMap<CellKey, Arc<FlightSlot<CellReply>>>>,
    metrics: RouterMetrics,
}

impl RouterShared {
    fn inflight(&self) -> MutexGuard<'_, HashMap<CellKey, Arc<FlightSlot<CellReply>>>> {
        lock_unpoisoned(&self.inflight)
    }

    fn healthy_replicas(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.healthy.load(Ordering::Acquire))
            .count()
    }
}

/// A running router instance.
pub struct Router {
    shared: Arc<RouterShared>,
    prober_handle: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Binds, spawns the accept loop and the health prober, and returns.
    ///
    /// # Errors
    ///
    /// Fails if the replica list is empty or the address cannot be
    /// bound.
    pub fn start(config: RouterConfig) -> std::io::Result<Router> {
        if config.replicas.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one replica",
            ));
        }
        let shared = Service::start(&config.addr, config.max_body_bytes, |service| {
            let now = Instant::now();
            Ok(RouterShared {
                service,
                replicas: config
                    .replicas
                    .iter()
                    .map(|&addr| Replica {
                        addr,
                        healthy: AtomicBool::new(true),
                        last_ok: Mutex::new(now),
                        idle: Mutex::new(Vec::new()),
                    })
                    .collect(),
                ring: Ring::new(&config.replicas),
                config: config.clone(),
                inflight: Mutex::new(HashMap::new()),
                metrics: RouterMetrics::default(),
            })
        })?;
        let prober_shared = Arc::clone(&shared);
        let prober_handle = std::thread::Builder::new()
            .name("tpi-router-prober".to_owned())
            .spawn(move || prober_loop(&prober_shared))
            .expect("spawn prober");
        Ok(Router {
            shared,
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.service.addr()
    }

    /// Replicas currently holding a health lease.
    #[must_use]
    pub fn healthy_replicas(&self) -> usize {
        self.shared.healthy_replicas()
    }

    /// Cells with a forward currently in flight. Zero once every client
    /// request has been terminally answered — `tpi-chaos --router`
    /// asserts exactly that at drain.
    #[must_use]
    pub fn inflight_cells(&self) -> usize {
        self.shared.inflight().len()
    }

    /// Blocks until some client posts `/admin/shutdown` (or another
    /// thread calls [`Router::shutdown`]).
    pub fn wait_for_shutdown_request(&self) {
        self.shared.service.wait_for_shutdown_request();
    }

    /// Graceful shutdown: stop accepting, let open connections finish
    /// their in-flight responses (bounded), and report final counters.
    /// Replicas are *not* shut down — the router fronts the fleet, it
    /// does not own it.
    pub fn shutdown(mut self) -> RouterStats {
        self.shared.service.stop_accepting();
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
        self.shared.service.drain();
        let m = &self.shared.metrics;
        RouterStats {
            experiment_requests: m.experiment_requests.load(Ordering::Relaxed),
            cells_forwarded: m.cells_forwarded.load(Ordering::Relaxed),
            cells_joined: m.cells_joined.load(Ordering::Relaxed),
            failovers: m.failovers.load(Ordering::Relaxed),
            cells_unavailable: m.cells_unavailable.load(Ordering::Relaxed),
            rejected_draining: m.rejected_draining.load(Ordering::Relaxed),
            healthy_replicas: self.shared.healthy_replicas(),
        }
    }
}

/// Probes every replica, renews or expires leases, sleeps one interval
/// (woken early by shutdown), repeats. Probing is the *only* writer of
/// replica health.
fn prober_loop(shared: &RouterShared) {
    let timeout = shared.config.probe_interval.max(Duration::from_millis(50));
    while !shared.service.shutting_down() {
        for replica in &shared.replicas {
            let alive = loadgen::get(replica.addr, "/healthz", timeout)
                .map(|r| r.status == 200)
                .unwrap_or(false);
            if alive {
                shared.metrics.probes_ok.fetch_add(1, Ordering::Relaxed);
                *lock_unpoisoned(&replica.last_ok) = Instant::now();
                replica.healthy.store(true, Ordering::Release);
            } else {
                shared.metrics.probes_failed.fetch_add(1, Ordering::Relaxed);
                let expired = lock_unpoisoned(&replica.last_ok).elapsed() > shared.config.lease;
                if expired {
                    replica.healthy.store(false, Ordering::Release);
                }
            }
        }
        shared
            .service
            .sleep_unless_shutdown(shared.config.probe_interval);
    }
}

impl Handler for RouterShared {
    const NAME: &'static str = "tpi-router";

    fn experiments(&self, body: &[u8]) -> Response {
        if self.service.shutting_down() {
            return Response::json(
                503,
                error_body("shutting_down", "the router is shutting down"),
            );
        }
        handle_experiments(self, body)
    }

    fn healthz(&self) -> Json {
        let replicas: Vec<Json> = self
            .replicas
            .iter()
            .map(|r| {
                Json::obj([
                    ("addr", Json::from(r.addr.to_string())),
                    ("healthy", Json::Bool(r.healthy.load(Ordering::Acquire))),
                ])
            })
            .collect();
        let healthy = self.healthy_replicas();
        Json::obj([
            (
                "status",
                Json::from(if healthy > 0 { "ok" } else { "draining" }),
            ),
            (
                "uptime_seconds",
                Json::from(self.service.uptime().as_secs()),
            ),
            ("replicas", Json::Arr(replicas)),
            ("healthy_replicas", Json::from(healthy)),
            ("inflight_cells", Json::from(self.inflight().len())),
        ])
    }

    fn metrics(&self) -> String {
        render_metrics(self)
    }
}

fn render_metrics(shared: &RouterShared) -> String {
    let m = &shared.metrics;
    let mut out = String::with_capacity(2048);
    let counters: [(&str, &str, u64); 11] = [
        (
            "tpi_router_experiment_requests_total",
            "Experiment requests handled by the router",
            m.experiment_requests.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_cells_forwarded_total",
            "Cells resolved by an upstream forward",
            m.cells_forwarded.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_cells_joined_total",
            "Cells that joined an identical in-flight forward",
            m.cells_joined.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_forward_attempts_total",
            "Individual forward attempts, including retries",
            m.forward_attempts.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_failovers_total",
            "Forward attempts that failed and moved to another replica",
            m.failovers.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_cells_unavailable_total",
            "Cells that exhausted every forward attempt",
            m.cells_unavailable.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_rejected_draining_total",
            "Requests refused because every replica was draining",
            m.rejected_draining.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_rejected_timeout_total",
            "Requests that exceeded the router deadline",
            m.rejected_timeout.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_probes_ok_total",
            "Health probes answered 200",
            m.probes_ok.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_probes_failed_total",
            "Health probes that failed or timed out",
            m.probes_failed.load(Ordering::Relaxed),
        ),
        (
            "tpi_router_bad_requests_total",
            "Requests rejected with a 400",
            m.bad_requests.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    out.push_str(
        "# HELP tpi_replica_healthy Whether the replica holds a health lease (1) or is draining (0)\n\
         # TYPE tpi_replica_healthy gauge\n",
    );
    for replica in &shared.replicas {
        let healthy = u64::from(replica.healthy.load(Ordering::Acquire));
        out.push_str(&format!(
            "tpi_replica_healthy{{replica=\"{}\"}} {healthy}\n",
            replica.addr
        ));
    }
    out.push_str(&format!(
        "# HELP tpi_router_uptime_seconds Seconds since the router started\n\
         # TYPE tpi_router_uptime_seconds gauge\n\
         tpi_router_uptime_seconds {}\n",
        shared.service.uptime().as_secs()
    ));
    out
}

fn handle_experiments(shared: &RouterShared, body: &[u8]) -> Response {
    shared
        .metrics
        .experiment_requests
        .fetch_add(1, Ordering::Relaxed);
    let bad = |code: &'static str, message: String| {
        shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        Response::json(400, error_body(code, &message))
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return bad("bad_json", "body is not UTF-8".to_owned());
    };
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return bad("bad_json", e.to_string()),
    };
    let grid = match GridRequest::parse(&doc) {
        Ok(grid) => grid,
        Err(e) => {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Response::json(400, e.body());
        }
    };
    let cells = grid.cells();
    if cells.len() > shared.config.max_cells_per_request {
        return bad(
            "too_many_cells",
            format!(
                "{} cells exceeds the per-request limit of {}",
                cells.len(),
                shared.config.max_cells_per_request
            ),
        );
    }

    let deadline = Instant::now() + shared.config.request_timeout;
    let mut rendered = Vec::with_capacity(cells.len());
    for key in cells {
        let reply = resolve_cell(shared, key, deadline);
        match reply.as_deref() {
            Some(CellReply::Cell(json)) => rendered.push(json.clone()),
            Some(CellReply::Relay { status, body }) => {
                return Response::json(*status, body.clone());
            }
            Some(CellReply::Unavailable) => {
                return Response::retryable_503(error_body(
                    "upstream_unavailable",
                    "every forward attempt for a cell failed; retry after the suggested delay",
                ));
            }
            Some(CellReply::AllDraining) => {
                shared
                    .metrics
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                return Response::retryable_503(error_body(
                    "all_replicas_draining",
                    "no replica holds a health lease; retry after the suggested delay",
                ));
            }
            None => {
                shared
                    .metrics
                    .rejected_timeout
                    .fetch_add(1, Ordering::Relaxed);
                return Response::json(
                    504,
                    error_body(
                        "timeout",
                        "router deadline exceeded before all cells resolved",
                    ),
                );
            }
        }
    }
    let count = rendered.len();
    let body = Json::obj([("cells", Json::Arr(rendered)), ("count", Json::from(count))]).render();
    Response::json(200, body)
}

/// Resolves one cell through the global single-flight table: join an
/// identical in-flight forward, or lead one. `None` means the deadline
/// passed first.
fn resolve_cell(shared: &RouterShared, key: CellKey, deadline: Instant) -> Option<Arc<CellReply>> {
    let slot = {
        let mut inflight = shared.inflight();
        if let Some(slot) = inflight.get(&key) {
            shared.metrics.cells_joined.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::clone(slot);
            drop(inflight);
            return slot.wait_until(deadline);
        }
        let slot = FlightSlot::new();
        inflight.insert(key, Arc::clone(&slot));
        slot
    };
    let reply = Arc::new(forward_cell(shared, &key, deadline));
    // Publish before removing so joiners that already hold the slot and
    // latecomers that will miss the table both see a terminal answer.
    slot.complete(Arc::clone(&reply));
    shared.inflight().remove(&key);
    if matches!(*reply, CellReply::Cell(_)) {
        shared
            .metrics
            .cells_forwarded
            .fetch_add(1, Ordering::Relaxed);
    }
    Some(reply)
}

/// Leads one cell's forward: walk the healthy replicas in ring order,
/// one attempt each with a per-attempt deadline, jittered backoff
/// between attempts, until an attempt succeeds, a terminal upstream
/// answer arrives, or the budget runs out.
fn forward_cell(shared: &RouterShared, key: &CellKey, deadline: Instant) -> CellReply {
    let order = shared.ring.placement(key);
    let body = key.single_cell_body();
    let cell_hash = splitmix64(fnv1a(key.canonical().as_bytes()));
    let mut saw_healthy = false;
    for attempt in 1..=shared.config.max_attempts {
        if Instant::now() >= deadline {
            break;
        }
        // Re-evaluate health every attempt: a re-probed replica rejoins,
        // a drained one drops out, and the preference order stays stable.
        let candidates: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| shared.replicas[i].healthy.load(Ordering::Acquire))
            .collect();
        if candidates.is_empty() {
            return CellReply::AllDraining;
        }
        saw_healthy = true;
        let target = candidates[(attempt as usize - 1) % candidates.len()];
        let replica = &shared.replicas[target];
        shared
            .metrics
            .forward_attempts
            .fetch_add(1, Ordering::Relaxed);
        let timeout = shared
            .config
            .attempt_timeout
            .min(deadline.saturating_duration_since(Instant::now()))
            .max(Duration::from_millis(10));
        let mut suggested = None;
        match replica.forward(&body, timeout) {
            Ok(response) if response.status == 200 => {
                if let Some(cell) = extract_single_cell(&response.body) {
                    return CellReply::Cell(cell);
                }
                // A 200 with an unusable body is a replica bug; treat it
                // like a failed attempt and fail over.
            }
            Ok(response) if response.status >= 500 => {
                // Retryable upstream trouble (overload, shutdown, panic):
                // honor a suggested delay, then fail over.
                suggested = response
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(Duration::from_secs);
            }
            Ok(response) => {
                // A structured 4xx for a request the router itself
                // validated is terminal — relay it rather than guessing.
                return CellReply::Relay {
                    status: response.status,
                    body: String::from_utf8_lossy(&response.body).into_owned(),
                };
            }
            Err(_) => {
                // Connect refused / reset / timed out / a malformed
                // answer: the classic killed-replica signature. Fail over.
            }
        }
        shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
        if attempt < shared.config.max_attempts {
            std::thread::sleep(shared.config.retry.backoff(
                cell_hash as usize,
                target,
                attempt,
                suggested,
            ));
        }
    }
    shared
        .metrics
        .cells_unavailable
        .fetch_add(1, Ordering::Relaxed);
    if saw_healthy {
        CellReply::Unavailable
    } else {
        CellReply::AllDraining
    }
}

/// Pulls the single cell object out of a replica's grid response body.
fn extract_single_cell(body: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(body).ok()?;
    let doc = parse(text).ok()?;
    let cells = doc.get("cells")?.as_array()?;
    if cells.len() == 1 {
        Some(cells[0].clone())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key(seed: u64) -> CellKey {
        let doc = parse(&format!(
            r#"{{"kernels":["FLO52"],"schemes":["TPI"],"seed":{seed}}}"#
        ))
        .unwrap();
        GridRequest::parse(&doc).unwrap().cells()[0]
    }

    fn ring(replicas: &[&str]) -> Ring {
        let addrs: Vec<SocketAddr> = replicas.iter().map(|a| a.parse().unwrap()).collect();
        Ring::new(&addrs)
    }

    #[test]
    fn placement_is_stable_and_covers_every_replica() {
        let ring = ring(&["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]);
        for seed in 0..20 {
            let key = test_key(seed);
            let order = ring.placement(&key);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "a permutation of the fleet");
            assert_eq!(order, ring.placement(&key), "placement is deterministic");
        }
    }

    #[test]
    fn placement_spreads_cells_across_the_fleet() {
        let ring = ring(&["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]);
        let mut owners = [0usize; 3];
        for seed in 0..60 {
            owners[ring.placement(&test_key(seed))[0]] += 1;
        }
        assert!(
            owners.iter().all(|&n| n > 0),
            "60 distinct cells should land on every replica: {owners:?}"
        );
    }

    #[test]
    fn killing_a_replica_moves_only_its_cells() {
        let ring = ring(&["127.0.0.1:9001", "127.0.0.1:9002", "127.0.0.1:9003"]);
        let keys: Vec<CellKey> = (0..60).map(test_key).collect();
        let before: Vec<usize> = keys.iter().map(|k| ring.placement(k)[0]).collect();
        // A draining replica keeps its ring points; only the healthy
        // filter at attempt time changes. The *preference order* of the
        // survivors must be untouched for cells they already owned.
        for (key, &owner) in keys.iter().zip(&before) {
            if owner != 1 {
                let order = ring.placement(key);
                let survivors: Vec<usize> = order.iter().copied().filter(|&i| i != 1).collect();
                assert_eq!(
                    survivors.first(),
                    Some(&owner),
                    "cells not owned by the dead replica keep their owner"
                );
            }
        }
    }

    #[test]
    fn cell_slot_joins_see_the_leaders_reply() {
        let slot = FlightSlot::new();
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait_until(Instant::now() + Duration::from_secs(5)))
        };
        slot.complete(Arc::new(CellReply::Unavailable));
        assert!(matches!(
            waiter.join().unwrap().as_deref(),
            Some(CellReply::Unavailable)
        ));
        // A slot that is never filled times out instead of hanging.
        let empty = FlightSlot::<CellReply>::new();
        assert!(empty
            .wait_until(Instant::now() + Duration::from_millis(20))
            .is_none());
    }

    #[test]
    fn extract_single_cell_accepts_exactly_one_cell() {
        let one = br#"{"cells":[{"kernel":"FLO52","total_cycles":1}],"count":1}"#;
        assert!(extract_single_cell(one).is_some());
        for bad in [
            &b"not json"[..],
            br#"{"cells":[],"count":0}"#,
            br#"{"cells":[{},{}],"count":2}"#,
            br#"{"count":1}"#,
        ] {
            assert!(extract_single_cell(bad).is_none());
        }
    }
}
