//! The replica: request handling over the HTTP skeleton it shares with
//! the [router](crate::router), and graceful shutdown.
//!
//! ```text
//! clients ──► service skeleton ──► POST /v1/experiments ──► plan cells (CellStore)
//!                                    cached ◄─ result cache       │ leads
//!                                    joined ◄─ in-flight table    ▼
//!                                             bounded queue ──► workers ──► Runner
//! ```
//!
//! Robustness mechanics, all on by default: the work queue is bounded
//! (overflow → 503 + `Retry-After`), every request carries a deadline
//! (exceeded → 504), malformed bodies are 400s with structured error
//! bodies, identical in-flight cells are computed once (single-flight),
//! panicking cells resolve to structured 500s without wedging their
//! waiters, dead workers respawn, and shutdown stops accepting, drains
//! or terminally fails every queued cell, then reports a final stats
//! line. An optional [`FaultPlan`] (the `--faults` flag) injects
//! deterministic failures at every one of those seams; it is absent —
//! and free — in normal operation. See `DESIGN.md` ("Failure model").

use crate::disk::{DiskCache, RecoveryReport};
use crate::fault::{FaultPlan, FaultSite};
use crate::json::{parse, Json};
use crate::metrics::{Endpoint, Metrics};
use crate::pool::{
    CellError, CellOutcome, CellPlan, CellStore, FlightSlot, WorkerPool, DEFAULT_MEMORY_CELLS,
};
use crate::service::{Handler, Response, Service};
use crate::wire::{error_body, render_cell_error, BadRequest, GridRequest};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi::Runner;

/// Interpreted traces the replica's `Runner` keeps. `CellStore` answers
/// repeated cells, so the memo only has to share a trace among the
/// schemes of a grid (cells arrive kernel by kernel, at most a few
/// distinct traces each), not keep one for every seed it was ever sent.
const MEMO_TRACES: usize = 8;

/// Everything tunable about one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 asks the OS for an ephemeral port; the bound
    /// address is reported by [`Server::addr`] and printed by the binary,
    /// so tests never hard-code ports.
    pub addr: String,
    /// Worker threads simulating cells.
    pub workers: usize,
    /// Bounded work-queue capacity, in cells.
    pub queue_cap: usize,
    /// Per-request deadline: a request whose cells haven't all finished
    /// by then gets a 504.
    pub request_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Largest grid a single request may expand to.
    pub max_cells_per_request: usize,
    /// Deterministic fault injection (the `--faults` flag). `None` — the
    /// default — means no faults and no injection overhead.
    pub fault: Option<Arc<FaultPlan>>,
    /// Directory for the crash-safe persistent result cache (the
    /// `--cache-dir` flag). `None` — the default — keeps the store
    /// memory-only, exactly the pre-persistence behavior.
    pub cache_dir: Option<PathBuf>,
    /// Bound on the in-memory completed-result LRU, in cells (the
    /// `--memory-cells` flag).
    pub memory_cells: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            queue_cap: 256,
            request_timeout: Duration::from_secs(60),
            max_body_bytes: 1024 * 1024,
            max_cells_per_request: 1024,
            fault: None,
            cache_dir: None,
            memory_cells: DEFAULT_MEMORY_CELLS,
        }
    }
}

/// The final stats line a graceful shutdown reports.
#[derive(Debug, Clone, Copy)]
pub struct ServeStats {
    /// Requests served on the experiments endpoint.
    pub experiment_requests: u64,
    /// Cells computed by workers.
    pub cells_computed: u64,
    /// Cells answered from the result cache.
    pub cells_cached: u64,
    /// Cells that joined an in-flight computation.
    pub cells_joined: u64,
    /// Requests refused with 503.
    pub rejected_queue_full: u64,
    /// Requests that timed out with 504.
    pub rejected_timeout: u64,
    /// Cell computations that panicked (contained per cell).
    pub cell_panics: u64,
    /// Worker threads the supervisor respawned.
    pub worker_restarts: u64,
    /// Runner artifact-cache snapshot.
    pub runner: tpi::RunnerStats,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[tpi-serve final: {} experiment requests; cells {} computed / {} cached / {} joined; \
             {} overloaded / {} timed out; {} cell panics / {} worker restarts; \
             runner traces {} built / {} reused]",
            self.experiment_requests,
            self.cells_computed,
            self.cells_cached,
            self.cells_joined,
            self.rejected_queue_full,
            self.rejected_timeout,
            self.cell_panics,
            self.worker_restarts,
            self.runner.traces_built,
            self.runner.trace_hits,
        )
    }
}

struct Shared {
    service: Arc<Service>,
    config: ServeConfig,
    runner: Arc<Runner>,
    metrics: Arc<Metrics>,
    store: Arc<CellStore>,
    pool: WorkerPool,
    fault: Option<Arc<FaultPlan>>,
    /// What the disk-cache recovery scan found at startup (`None` when
    /// the server runs memory-only).
    recovery: Option<RecoveryReport>,
}

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let shared = Service::start(&config.addr, config.max_body_bytes, |service| {
            let runner = Arc::new(Runner::new().with_trace_limit(MEMO_TRACES));
            let metrics = Arc::new(Metrics::default());
            let fault = config.fault.clone();
            let (disk, recovery) = match &config.cache_dir {
                Some(dir) => {
                    let (disk, report) = DiskCache::open(dir, fault.clone(), Arc::clone(&metrics))?;
                    (Some(Arc::new(disk)), Some(report))
                }
                None => (None, None),
            };
            let store = Arc::new(CellStore::new(
                config.memory_cells,
                disk,
                Some(Arc::clone(&metrics)),
            ));
            let pool = WorkerPool::start(
                config.workers,
                config.queue_cap,
                Arc::clone(&runner),
                Arc::clone(&store),
                Arc::clone(&metrics),
                fault.clone(),
            );
            Ok(Shared {
                service,
                config: config.clone(),
                runner,
                metrics,
                store,
                pool,
                fault,
                recovery,
            })
        })?;
        Ok(Server { shared })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.service.addr()
    }

    /// What the disk-cache recovery scan found at startup (`None` when
    /// no `cache_dir` is configured).
    #[must_use]
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.recovery
    }

    /// Cells currently in flight. Zero once every request has been
    /// terminally answered — `tpi-chaos` asserts exactly that at drain.
    #[must_use]
    pub fn inflight_cells(&self) -> usize {
        self.shared.store.inflight_cells()
    }

    /// A handle on the cell store that outlives [`Server::shutdown`] —
    /// `tpi-chaos` inspects the drained store after the server is gone.
    #[must_use]
    pub fn cell_store(&self) -> Arc<CellStore> {
        Arc::clone(&self.shared.store)
    }

    /// Blocks until some client posts `/admin/shutdown` (or another
    /// thread calls [`Server::shutdown`]).
    pub fn wait_for_shutdown_request(&self) {
        self.shared.service.wait_for_shutdown_request();
    }

    /// Graceful shutdown: stop accepting, drain or terminally fail every
    /// queued cell, then wait for open connections to write their final
    /// responses (bounded) and report the final counters.
    ///
    /// The pool is stopped *before* waiting on connections: connections
    /// may be blocked on flight slots whose jobs are still queued, and
    /// under faults there may be no worker left to drain them — stopping
    /// the pool first resolves every slot (computed by a surviving
    /// worker, or failed with [`CellError::ShuttingDown`]), so waiting
    /// connections always get a terminal answer instead of wedging the
    /// drain window.
    pub fn shutdown(self) -> ServeStats {
        self.shared.service.stop_accepting();
        self.shared.pool.shutdown();
        self.shared.service.drain();
        let m = &self.shared.metrics;
        ServeStats {
            experiment_requests: m.requests_for(Endpoint::Experiments),
            cells_computed: m.cells_computed.load(Ordering::Relaxed),
            cells_cached: m.cells_cached.load(Ordering::Relaxed),
            cells_joined: m.cells_joined.load(Ordering::Relaxed),
            rejected_queue_full: m.rejected_queue_full.load(Ordering::Relaxed),
            rejected_timeout: m.rejected_timeout.load(Ordering::Relaxed),
            cell_panics: m.cell_panics.load(Ordering::Relaxed),
            worker_restarts: m.worker_restarts.load(Ordering::Relaxed),
            runner: self.shared.runner.stats(),
        }
    }
}

impl Handler for Shared {
    const NAME: &'static str = "tpi-serve";

    fn experiments(&self, body: &[u8]) -> Response {
        if self.service.shutting_down() {
            return shutting_down_response();
        }
        handle_experiments(self, body)
    }

    fn healthz(&self) -> Json {
        let mut members = vec![
            ("status", Json::from("ok")),
            (
                "uptime_seconds",
                Json::from(self.service.uptime().as_secs()),
            ),
            ("workers", Json::from(self.pool.workers())),
            ("queue_depth", Json::from(self.pool.queue_depth())),
            ("queue_capacity", Json::from(self.pool.capacity())),
            ("results_cached", Json::from(self.store.results_cached())),
        ];
        if let Some(disk) = self.store.disk() {
            let stats = disk.stats();
            members.push((
                "disk",
                Json::obj([
                    ("entries", Json::from(disk.entries())),
                    ("hits", Json::from(stats.hits)),
                    ("writes", Json::from(stats.writes)),
                    ("quarantined", Json::from(stats.quarantined)),
                ]),
            ));
        }
        Json::obj(members)
    }

    fn metrics(&self) -> String {
        self.metrics.render(
            &self.runner.stats(),
            &self.runner.profile(),
            self.pool.queue_depth(),
            self.pool.busy(),
            self.pool.workers(),
            self.service.uptime(),
        )
    }

    fn admit(&self) -> bool {
        if self.fires(FaultSite::ConnDrop) {
            return false;
        }
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn truncate(&self) -> bool {
        self.fires(FaultSite::RespTruncate)
    }

    fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        self.metrics.record_request(endpoint, status, elapsed);
    }
}

impl Shared {
    /// Draws `site` from the fault plan, counting the fault if it fires.
    fn fires(&self, site: FaultSite) -> bool {
        let fired = self.fault.as_ref().is_some_and(|plan| plan.fires(site));
        if fired {
            self.metrics.fault(site);
        }
        fired
    }
}

fn bad_request(shared: &Shared, err: &BadRequest) -> Response {
    shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
    Response::json(400, err.body())
}

fn overloaded(shared: &Shared) -> Response {
    shared
        .metrics
        .rejected_queue_full
        .fetch_add(1, Ordering::Relaxed);
    Response::retryable_503(error_body(
        "overloaded",
        "work queue is full; retry after the suggested delay",
    ))
}

fn shutting_down_response() -> Response {
    Response::json(
        503,
        error_body("shutting_down", "the service is shutting down"),
    )
}

fn handle_experiments(shared: &Shared, body: &[u8]) -> Response {
    if shared.fires(FaultSite::Overload) {
        // Indistinguishable from real backpressure on the wire:
        // clients must treat it as the retryable 503 it claims to be.
        return overloaded(shared);
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return bad_request(
            shared,
            &BadRequest {
                code: "bad_json",
                message: "body is not UTF-8".to_owned(),
            },
        );
    };
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return bad_request(
                shared,
                &BadRequest {
                    code: "bad_json",
                    message: e.to_string(),
                },
            )
        }
    };
    let grid = match GridRequest::parse(&doc) {
        Ok(grid) => grid,
        Err(e) => return bad_request(shared, &e),
    };
    let cells = grid.cells();
    if cells.len() > shared.config.max_cells_per_request {
        return bad_request(
            shared,
            &BadRequest {
                code: "too_many_cells",
                message: format!(
                    "{} cells exceeds the per-request limit of {}",
                    cells.len(),
                    shared.config.max_cells_per_request
                ),
            },
        );
    }

    // Plan every cell, collecting the jobs this request leads.
    let mut plans = Vec::with_capacity(cells.len());
    let mut jobs = Vec::new();
    for key in &cells {
        match shared.store.plan(*key) {
            CellPlan::Cached(outcome) => {
                shared.metrics.cells_cached.fetch_add(1, Ordering::Relaxed);
                plans.push((*key, Wait::Ready(outcome)));
            }
            CellPlan::Joined(slot) => {
                shared.metrics.cells_joined.fetch_add(1, Ordering::Relaxed);
                plans.push((*key, Wait::Slot(slot)));
            }
            CellPlan::Lead(job) => {
                plans.push((*key, Wait::Slot(Arc::clone(&job.slot))));
                jobs.push(job);
            }
        }
    }

    // Submit the led jobs as one unit: backpressure is all-or-nothing.
    // A refusal must release any waiter that joined the refused slots —
    // with the cause, so clients can tell a retryable queue-full from a
    // terminal shutdown refusal.
    if let Err(refused) = shared.pool.submit_batch(jobs) {
        let cause = if shared.service.shutting_down() {
            CellError::ShuttingDown
        } else {
            CellError::Overloaded
        };
        for job in &refused {
            shared.store.finish(job, Err(cause.clone()));
        }
        return if cause == CellError::ShuttingDown {
            shutting_down_response()
        } else {
            overloaded(shared)
        };
    }

    // Collect, in deterministic cell order, under the request deadline.
    let deadline = Instant::now() + shared.config.request_timeout;
    let mut rendered = Vec::with_capacity(plans.len());
    for (key, wait) in plans {
        let outcome: Arc<CellOutcome> = match wait {
            Wait::Ready(outcome) => outcome,
            Wait::Slot(slot) => match slot.wait_until(deadline) {
                Some(outcome) => outcome,
                None => {
                    shared
                        .metrics
                        .rejected_timeout
                        .fetch_add(1, Ordering::Relaxed);
                    return Response::json(
                        504,
                        error_body(
                            "timeout",
                            "request deadline exceeded before all cells finished",
                        ),
                    );
                }
            },
        };
        match outcome.as_ref() {
            Ok(value) => rendered.push(value.to_json(&key)),
            Err(CellError::Overloaded) => return overloaded(shared),
            Err(CellError::Failed(message)) => rendered.push(render_cell_error(&key, message)),
            Err(CellError::Panicked(message)) => {
                return Response::json(
                    500,
                    error_body(
                        "cell_panicked",
                        &format!("cell computation panicked: {message}"),
                    ),
                );
            }
            Err(CellError::ShuttingDown) => return shutting_down_response(),
        }
    }
    let count = rendered.len();
    let body = Json::obj([("cells", Json::Arr(rendered)), ("count", Json::from(count))]).render();
    Response::json(200, body)
}

enum Wait {
    Ready(Arc<CellOutcome>),
    Slot(Arc<FlightSlot<CellOutcome>>),
}
