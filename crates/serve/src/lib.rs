//! `tpi-serve` — the reproduction as a long-lived service.
//!
//! Every other entry point in this workspace is a one-shot CLI; this
//! crate turns the memoized [`tpi::Runner`] into a production-style
//! experiment service: a dependency-free, std-only multithreaded
//! HTTP/1.1 server whose unit of work is one grid cell of the paper's
//! evaluation (kernel × scheme × optimization level × processor count).
//!
//! | endpoint | purpose |
//! |----------|---------|
//! | `POST /v1/experiments` | run a JSON grid request, return per-cell results |
//! | `GET /v1/kernels` | discovery: the benchmark suite |
//! | `GET /v1/schemes` | discovery: the coherence schemes |
//! | `GET /healthz` | liveness + queue/cache gauges |
//! | `GET /metrics` | Prometheus text: request counts, latency histograms, queue depth, worker utilization, Runner artifact-cache counters |
//! | `POST /admin/shutdown` | graceful shutdown: stop accepting, drain, report |
//!
//! Robustness mechanics: bounded work queue with all-or-nothing
//! backpressure (503 + `Retry-After`), per-request deadlines (504),
//! single-flight deduplication of identical in-flight cells, a
//! completed-result cache, structured 400s for malformed bodies, and
//! graceful drain on shutdown. Failure isolation is tested, not
//! assumed: a panicking cell is contained to a structured 500 for its
//! waiters ([`pool`]), dead workers are respawned, the load generator
//! retries transient failures with jittered backoff ([`loadgen`]), and
//! a deterministic seeded fault plan ([`fault`]) plus a chaos soak
//! ([`chaos`], the `tpi-chaos` binary) exercise every failure path.
//!
//! Replication and persistence ride on top of the single-node server:
//! a crash-safe content-addressed disk cache ([`disk`], `--cache-dir`)
//! makes restarts warm and byte-identical (corrupt records are
//! quarantined, never served), and the `tpi-router` binary ([`router`])
//! fronts N replicas with consistent hashing, health leases, failover,
//! and fleet-wide single-flight — `tpi-chaos --router` SIGKILLs a real
//! replica mid-burst and asserts zero failed client requests plus a
//! warm restart from its disk cache.
//!
//! The replica ([`server`]) and the router ([`router`]) run on one HTTP
//! skeleton, a crate-private `service` module: bind and accept, the
//! keep-alive connection loop, shutdown and drain, and the routes both
//! answer alike (discovery, `/admin/shutdown`, 404/405). Each adds a
//! handler for its own experiments, health and metrics routes, and both
//! single-flight tables hold one [`pool::FlightSlot`] type. See
//! `DESIGN.md` ("The experiment service", "Replication and persistence")
//! for the architecture.
//!
//! # Quickstart
//!
//! ```
//! use tpi_serve::server::{ServeConfig, Server};
//! use tpi_serve::loadgen;
//! use std::time::Duration;
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".to_owned(), // ephemeral port: no collisions
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.addr();
//! let health = loadgen::get(addr, "/healthz", Duration::from_secs(5))?;
//! assert_eq!(health.status, 200);
//! let stats = server.shutdown();
//! assert_eq!(stats.cells_computed, 0);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod disk;
pub mod fault;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod server;
mod service;
pub mod wire;

pub use disk::{DiskCache, RecoveryReport};
pub use fault::{FaultPlan, FaultSite};
pub use router::{Router, RouterConfig};
pub use server::{ServeConfig, ServeStats, Server};
pub use wire::{CellKey, GridRequest};
