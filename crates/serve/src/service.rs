//! The HTTP skeleton the replica ([`crate::server`]) and the router
//! ([`crate::router`]) share: bind and the accept thread, the one
//! keep-alive connection loop, the shutdown signal and bounded drain,
//! one response type, and the routes both answer the same way.
//!
//! ```text
//! clients ──► accept thread ──► connection threads ──► route
//!                  │ admit?          │ 400/413 on bad framing     │
//!                  ▼                 ▼                            ▼
//!             (conn_drop)    keep-alive until idle      /v1/kernels, /v1/schemes,
//!                            at shutdown or close       /admin/shutdown, 405, 404
//!                                                        else ──► Handler
//! ```
//!
//! A [`Handler`] answers the three routes whose answers are its own
//! (`POST /v1/experiments`, `GET /healthz`, `GET /metrics`). Its three
//! hooks default to off; the replica uses them for its `conn_drop` and
//! `resp_truncate` fault sites and its per-endpoint request metrics.

use crate::http::{read_request, write_response, HttpError, Request};
use crate::json::Json;
use crate::metrics::Endpoint;
use crate::wire::{error_body, kernels_body, schemes_body};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tpi::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};

/// How long a connection blocks in `read` before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long [`Service::drain`] waits for open connections to write
/// their final responses.
const DRAIN_WINDOW: Duration = Duration::from_secs(10);

/// One response, as a route produced it.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            extra_headers: Vec::new(),
        }
    }

    /// A 503 that tells the client when to come back.
    pub(crate) fn retryable_503(body: String) -> Response {
        let mut response = Response::json(503, body);
        response.extra_headers.push(("retry-after", "1".to_owned()));
        response
    }

    fn write(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write_response(
            out,
            self.status,
            self.content_type,
            self.body.as_bytes(),
            &self.extra_headers,
            keep_alive,
        )
    }
}

/// What one service answers on top of the shared skeleton.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Prefix of the accept and connection thread names.
    const NAME: &'static str;

    /// Answers `POST /v1/experiments`.
    fn experiments(&self, body: &[u8]) -> Response;

    /// The body of `GET /healthz`.
    fn healthz(&self) -> Json;

    /// The Prometheus text of `GET /metrics`.
    fn metrics(&self) -> String;

    /// Called once per accepted connection; `false` drops it before a
    /// byte is served.
    fn admit(&self) -> bool {
        true
    }

    /// Called once per routed request, after [`Handler::record`];
    /// `true` sends only half the response and hangs up.
    fn truncate(&self) -> bool {
        false
    }

    /// Records one routed request.
    fn record(&self, _endpoint: Endpoint, _status: u16, _elapsed: Duration) {}
}

/// The skeleton's state: what the accept thread, every connection and
/// the handler share.
pub(crate) struct Service {
    addr: SocketAddr,
    max_body_bytes: usize,
    started: Instant,
    shutdown: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
    active_conns: AtomicUsize,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Service {
    /// Binds `addr`, builds the handler over the bound service, and
    /// spawns the accept thread. Nothing is served if `handler` fails.
    pub(crate) fn start<H: Handler>(
        addr: &str,
        max_body_bytes: usize,
        handler: impl FnOnce(Arc<Service>) -> io::Result<H>,
    ) -> io::Result<Arc<H>> {
        let listener = TcpListener::bind(addr)?;
        let service = Arc::new(Service {
            addr: listener.local_addr()?,
            max_body_bytes,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            active_conns: AtomicUsize::new(0),
            accept: Mutex::new(None),
        });
        let handler = Arc::new(handler(Arc::clone(&service))?);
        let (accept_service, accept_handler) = (Arc::clone(&service), Arc::clone(&handler));
        let accept = std::thread::Builder::new()
            .name(format!("{}-accept", H::NAME))
            .spawn(move || accept_loop(&listener, &accept_service, &accept_handler))
            .expect("spawn accept loop");
        *lock_unpoisoned(&service.accept) = Some(accept);
        Ok(handler)
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Time since the service bound its address.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        let (lock, cond) = &self.shutdown_signal;
        *lock_unpoisoned(lock) = true;
        cond.notify_all();
        // Poke the blocking accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is requested.
    pub(crate) fn wait_for_shutdown_request(&self) {
        let (lock, cond) = &self.shutdown_signal;
        let mut requested = lock_unpoisoned(lock);
        while !*requested {
            requested = wait_unpoisoned(cond, requested);
        }
    }

    /// Sleeps for `timeout`, or less if shutdown is requested meanwhile.
    pub(crate) fn sleep_unless_shutdown(&self, timeout: Duration) {
        let (lock, cond) = &self.shutdown_signal;
        let guard = lock_unpoisoned(lock);
        if !*guard {
            let _ = wait_timeout_unpoisoned(cond, guard, timeout);
        }
    }

    /// Requests shutdown and waits for the accept thread to exit: no
    /// connection is accepted after this returns.
    pub(crate) fn stop_accepting(&self) {
        self.request_shutdown();
        if let Some(handle) = lock_unpoisoned(&self.accept).take() {
            let _ = handle.join();
        }
    }

    /// Waits, bounded, for open connections to write their final
    /// responses. They notice the shutdown flag within one idle poll.
    pub(crate) fn drain(&self) {
        let deadline = Instant::now() + DRAIN_WINDOW;
        while self.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn accept_loop<H: Handler>(listener: &TcpListener, service: &Arc<Service>, handler: &Arc<H>) {
    loop {
        let accepted = listener.accept();
        if service.shutting_down() {
            return;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        if !handler.admit() {
            // Dropping the stream resets the connection.
            continue;
        }
        service.active_conns.fetch_add(1, Ordering::AcqRel);
        let (conn_service, conn_handler) = (Arc::clone(service), Arc::clone(handler));
        let spawned = std::thread::Builder::new()
            .name(format!("{}-conn", H::NAME))
            .spawn(move || {
                connection_loop(&stream, &conn_service, conn_handler.as_ref());
                conn_service.active_conns.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            service.active_conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn connection_loop<H: Handler>(stream: &TcpStream, service: &Service, handler: &H) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    let mut out = stream;
    loop {
        let request = match read_request(&mut reader, service.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::Idle) if !service.shutting_down() => continue,
            Err(HttpError::Idle | HttpError::Closed | HttpError::Io(_)) => return,
            Err(HttpError::Malformed(message)) => {
                let body = error_body("bad_request", &message);
                let _ = Response::json(400, body).write(&mut out, false);
                return;
            }
            Err(HttpError::BodyTooLarge(n)) => {
                let body = error_body("body_too_large", &format!("{n} bytes exceeds the limit"));
                let _ = Response::json(413, body).write(&mut out, false);
                return;
            }
        };
        let started = Instant::now();
        let (endpoint, response) = route(service, handler, &request);
        handler.record(endpoint, response.status, started.elapsed());
        let keep_alive = request.keep_alive && !service.shutting_down();
        if handler.truncate() {
            // Render the full response, send only half of it, and hang
            // up: the client sees garbage-terminated bytes.
            let mut rendered = Vec::new();
            let _ = response.write(&mut rendered, false);
            let _ = out.write_all(&rendered[..rendered.len() / 2]);
            return;
        }
        if response.write(&mut out, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

fn route<H: Handler>(service: &Service, handler: &H, request: &Request) -> (Endpoint, Response) {
    let path = request
        .target
        .split('?')
        .next()
        .unwrap_or(request.target.as_str());
    match (request.method.as_str(), path) {
        ("POST", "/v1/experiments") => (Endpoint::Experiments, handler.experiments(&request.body)),
        // Discovery is the same everywhere: the router links the same
        // kernel and scheme tables as every replica, so the bytes are
        // identical and the endpoints stay up with the fleet draining.
        ("GET", "/v1/kernels") => (Endpoint::Kernels, Response::json(200, kernels_body())),
        ("GET", "/v1/schemes") => (Endpoint::Schemes, Response::json(200, schemes_body())),
        ("GET", "/healthz") => (
            Endpoint::Healthz,
            Response::json(200, handler.healthz().render()),
        ),
        ("GET", "/metrics") => (
            Endpoint::Metrics,
            Response {
                content_type: "text/plain; version=0.0.4",
                ..Response::json(200, handler.metrics())
            },
        ),
        ("POST", "/admin/shutdown") => {
            service.request_shutdown();
            (
                Endpoint::Shutdown,
                Response::json(200, "{\"status\":\"shutting down\"}".to_owned()),
            )
        }
        (
            _,
            "/v1/experiments" | "/v1/kernels" | "/v1/schemes" | "/healthz" | "/metrics"
            | "/admin/shutdown",
        ) => (
            Endpoint::Other,
            Response::json(405, error_body("method_not_allowed", "wrong method")),
        ),
        _ => (
            Endpoint::Other,
            Response::json(
                404,
                error_body("not_found", &format!("no route for {path}")),
            ),
        ),
    }
}
