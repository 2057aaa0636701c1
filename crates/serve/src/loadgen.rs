//! The load generator behind `tpi-loadgen`: N concurrent keep-alive
//! connections of mixed grid requests, reporting throughput and latency
//! percentiles as JSON.
//!
//! The request mix deliberately overlaps across connections: several
//! connections send byte-identical grids, so a healthy server shows
//! single-flight joins and result-cache hits in `/metrics` under load.
//!
//! Transient failures are retried under a [`RetryPolicy`]: exponential
//! backoff with full jitter (deterministically seeded, so two runs with
//! the same seed sleep the same schedule), a per-request retry budget,
//! and `Retry-After` honored when the server sends one. Retryable
//! outcomes are connection-level failures — refused connections, resets
//! mid-body, timeouts — for which the connection is torn down and
//! re-established, 503 `overloaded` / `upstream_unavailable`
//! backpressure, and 500 `cell_panicked` (the service guarantees a
//! panicked cell is never cached, so a retry recomputes it). Everything
//! else — 4xx, 503 `shutting_down` — is terminal. Connection-level
//! retried attempts are counted separately
//! ([`LoadgenReport::io_retries`]) from HTTP-level ones, so a run
//! against a replica that was killed mid-burst shows exactly how many
//! attempts died on the socket versus backpressure.

use crate::fault::splitmix64;
use crate::http::{read_response, Response};
use crate::json::{parse, Json};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When and how hard to retry a failed request.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries allowed per request on top of the first attempt
    /// (0 = never retry).
    pub budget: u32,
    /// Backoff before retry `k` is drawn uniformly from
    /// `0..=min(max_backoff, base_backoff * 2^(k-1))` — "full jitter".
    pub base_backoff: Duration,
    /// Hard cap on any single backoff sleep, including server-suggested
    /// `Retry-After` delays.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            budget: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (1-based) of request
    /// `(conn_index, request_index)`: full-jitter exponential backoff,
    /// raised to the server's `Retry-After` suggestion when present, and
    /// always capped by [`max_backoff`](Self::max_backoff).
    #[must_use]
    pub fn backoff(
        &self,
        conn_index: usize,
        request_index: usize,
        attempt: u32,
        retry_after: Option<Duration>,
    ) -> Duration {
        let ceiling = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff);
        let jitter = if ceiling.is_zero() {
            Duration::ZERO
        } else {
            let draw = splitmix64(
                self.seed
                    ^ ((conn_index as u64) << 40)
                    ^ ((request_index as u64) << 20)
                    ^ u64::from(attempt),
            );
            Duration::from_nanos(draw % (ceiling.as_nanos() as u64 + 1))
        };
        jitter
            .max(retry_after.unwrap_or(Duration::ZERO))
            .min(self.max_backoff)
    }
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server to drive.
    pub addr: SocketAddr,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests each connection issues sequentially.
    pub requests_per_connection: usize,
    /// Socket timeout for connect/read/write.
    pub timeout: Duration,
    /// Retry behaviour for transient failures.
    pub retry: RetryPolicy,
}

impl LoadgenConfig {
    /// Defaults for `addr`: 64 connections × 8 requests.
    #[must_use]
    pub fn new(addr: SocketAddr) -> LoadgenConfig {
        LoadgenConfig {
            addr,
            connections: 64,
            requests_per_connection: 8,
            timeout: Duration::from_secs(120),
            retry: RetryPolicy::default(),
        }
    }
}

/// The grid-request mix, as JSON bodies. Kept small enough that every
/// template's cells fit default queue bounds, and repeated across
/// connections so deduplication is observable.
#[must_use]
pub fn templates() -> Vec<&'static str> {
    vec![
        r#"{"kernels":["FLO52"],"schemes":["TPI","HW"]}"#,
        r#"{"kernels":["OCEAN"],"schemes":["TPI"],"opt_levels":["naive","full"]}"#,
        r#"{"kernels":["TRFD","QCD2"],"schemes":["SC","TPI"]}"#,
        r#"{"kernels":["SPEC77"],"schemes":["BASE","TPI"],"procs":[8,16]}"#,
        r#"{"kernels":["ARC2D"],"schemes":["TPI","HW"],"line_words":8}"#,
        r#"{"kernels":["FLO52"],"schemes":["tardis","hyb"]}"#,
    ]
}

/// Outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Connections driven.
    pub connections: usize,
    /// Requests attempted.
    pub requests: usize,
    /// 200 responses with a well-formed `cells` body.
    pub ok: usize,
    /// Non-2xx responses (by status) that ended a request — retried
    /// attempts are counted in `retries`, not here.
    pub non_2xx: Vec<(u16, usize)>,
    /// Responses with 2xx status but an invalid body.
    pub invalid_bodies: usize,
    /// Requests that died on a socket error after exhausting retries.
    pub io_errors: usize,
    /// Retried attempts across all requests (HTTP-level and
    /// connection-level together).
    pub retries: u64,
    /// The subset of [`retries`](Self::retries) whose failed attempt
    /// died at the connection level (refused, reset mid-body, timed
    /// out) rather than on a retryable HTTP status.
    pub io_retries: u64,
    /// Requests whose retry budget ran out while still failing
    /// transiently.
    pub retries_exhausted: usize,
    /// Histogram of attempts per request: `(attempts, requests)` pairs,
    /// ascending (1 = succeeded or terminally failed first try).
    pub attempts_histogram: Vec<(u32, usize)>,
    /// Wall-clock seconds for the whole run.
    pub elapsed_seconds: f64,
    /// Successful requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles over successful requests, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Worst latency, milliseconds.
    pub max_ms: f64,
}

impl LoadgenReport {
    /// The report as a JSON object (what `tpi-loadgen` prints and writes
    /// to `results/serve_bench.json`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let non_2xx: Vec<Json> = self
            .non_2xx
            .iter()
            .map(|(status, n)| {
                Json::obj([
                    ("status", Json::from(u64::from(*status))),
                    ("count", Json::from(*n)),
                ])
            })
            .collect();
        let attempts: Vec<Json> = self
            .attempts_histogram
            .iter()
            .map(|(attempts, n)| {
                Json::obj([
                    ("attempts", Json::from(u64::from(*attempts))),
                    ("requests", Json::from(*n)),
                ])
            })
            .collect();
        Json::obj([
            ("connections", Json::from(self.connections)),
            ("requests", Json::from(self.requests)),
            ("ok", Json::from(self.ok)),
            ("non_2xx", Json::Arr(non_2xx)),
            ("invalid_bodies", Json::from(self.invalid_bodies)),
            ("io_errors", Json::from(self.io_errors)),
            ("retries", Json::from(self.retries)),
            ("io_retries", Json::from(self.io_retries)),
            ("retries_exhausted", Json::from(self.retries_exhausted)),
            ("attempts_histogram", Json::Arr(attempts)),
            ("elapsed_seconds", Json::from(self.elapsed_seconds)),
            ("throughput_rps", Json::from(self.throughput_rps)),
            (
                "latency_ms",
                Json::obj([
                    ("p50", Json::from(self.p50_ms)),
                    ("p95", Json::from(self.p95_ms)),
                    ("p99", Json::from(self.p99_ms)),
                    ("mean", Json::from(self.mean_ms)),
                    ("max", Json::from(self.max_ms)),
                ]),
            ),
        ])
    }
}

#[derive(Default)]
struct Tally {
    latencies: Vec<Duration>,
    non_2xx: Vec<(u16, usize)>,
    invalid_bodies: usize,
    io_errors: usize,
    retries: u64,
    io_retries: u64,
    retries_exhausted: usize,
    attempts_histogram: Vec<(u32, usize)>,
}

impl Tally {
    fn count_status(&mut self, status: u16) {
        if let Some(entry) = self.non_2xx.iter_mut().find(|(s, _)| *s == status) {
            entry.1 += 1;
        } else {
            self.non_2xx.push((status, 1));
        }
    }

    fn count_attempts(&mut self, attempts: u32) {
        if let Some(entry) = self
            .attempts_histogram
            .iter_mut()
            .find(|(a, _)| *a == attempts)
        {
            entry.1 += 1;
        } else {
            self.attempts_histogram.push((attempts, 1));
        }
        self.retries += u64::from(attempts.saturating_sub(1));
    }

    fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        for (status, n) in other.non_2xx {
            if let Some(entry) = self.non_2xx.iter_mut().find(|(s, _)| *s == status) {
                entry.1 += n;
            } else {
                self.non_2xx.push((status, n));
            }
        }
        for (attempts, n) in other.attempts_histogram {
            if let Some(entry) = self
                .attempts_histogram
                .iter_mut()
                .find(|(a, _)| *a == attempts)
            {
                entry.1 += n;
            } else {
                self.attempts_histogram.push((attempts, n));
            }
        }
        self.invalid_bodies += other.invalid_bodies;
        self.io_errors += other.io_errors;
        self.retries += other.retries;
        self.io_retries += other.io_retries;
        self.retries_exhausted += other.retries_exhausted;
    }
}

/// Writes one request, head and body in a single write (see
/// [`crate::http::write_response`] for why).
pub(crate) fn write_request(
    out: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nhost: tpi-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body.as_bytes());
    out.write_all(&message)?;
    out.flush()
}

/// Sends one request on an open keep-alive connection and reads the
/// response.
///
/// # Errors
///
/// Propagates socket failures.
pub fn request_on(
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    let mut out = stream;
    write_request(&mut out, method, path, body)?;
    read_response(reader)
}

/// One-shot GET against the server (fresh connection) — used to scrape
/// `/healthz` and `/metrics`.
///
/// # Errors
///
/// Propagates socket failures.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(&stream);
    request_on(&stream, &mut reader, "GET", path, "")
}

/// One-shot POST against the server (fresh connection).
///
/// # Errors
///
/// Propagates socket failures.
pub fn post(addr: SocketAddr, path: &str, body: &str, timeout: Duration) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut reader = BufReader::new(&stream);
    request_on(&stream, &mut reader, "POST", path, body)
}

fn valid_grid_body(body: &[u8]) -> bool {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| parse(text).ok())
        .and_then(|doc| doc.get("cells").map(|cells| cells.as_array().is_some()))
        .unwrap_or(false)
}

/// The `error.code` of a structured error body, if it has one.
fn error_code(body: &[u8]) -> Option<String> {
    let doc = parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(doc.get("error")?.get("code")?.as_str()?.to_owned())
}

/// Whether a response is worth retrying. 503 `overloaded` is explicit
/// backpressure and 503 `upstream_unavailable` is the router briefly
/// without a live owner for a cell (failover or re-probe fixes it); 500
/// `cell_panicked` is transient by contract (panicked cells are never
/// cached, so a retry recomputes). 503 `shutting_down` /
/// `all_replicas_draining` and everything else are terminal.
fn retryable(response: &Response) -> bool {
    match response.status {
        503 => matches!(
            error_code(&response.body).as_deref(),
            Some("overloaded" | "upstream_unavailable")
        ),
        500 => error_code(&response.body).as_deref() == Some("cell_panicked"),
        _ => false,
    }
}

fn retry_after(response: &Response) -> Option<Duration> {
    response
        .header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_secs)
}

fn connect(config: &LoadgenConfig) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&config.addr, config.timeout)?;
    stream.set_read_timeout(Some(config.timeout))?;
    stream.set_write_timeout(Some(config.timeout))?;
    Ok(stream)
}

fn drive_connection(config: &LoadgenConfig, conn_index: usize, mix: &[&str]) -> Tally {
    let mut tally = Tally::default();
    let mut conn = connect(config).ok();
    for i in 0..config.requests_per_connection {
        let body = mix[(conn_index + i) % mix.len()];
        let started = Instant::now();
        let mut attempt = 0u32;
        // The status of the most recent transient failure (None for a
        // socket error), so an exhausted budget reports what it last saw.
        let mut last_transient: Option<u16> = None;
        // Each request gets the policy's budget of retries; a socket
        // error tears the connection down and the next attempt (or the
        // next request) reconnects.
        let terminal: Option<Response> = loop {
            attempt += 1;
            let result = match &conn {
                Some(stream) => {
                    let mut reader = BufReader::new(stream);
                    request_on(stream, &mut reader, "POST", "/v1/experiments", body)
                }
                None => Err(io::Error::new(io::ErrorKind::NotConnected, "not connected")),
            };
            let suggested = match result {
                Ok(response) => {
                    if !retryable(&response) {
                        break Some(response);
                    }
                    last_transient = Some(response.status);
                    retry_after(&response)
                }
                Err(_) => {
                    conn = None;
                    last_transient = None;
                    None
                }
            };
            if attempt > config.retry.budget {
                tally.retries_exhausted += 1;
                break None;
            }
            // This attempt will be retried; a `None` last_transient
            // means it died at the connection level, not on a status.
            if last_transient.is_none() {
                tally.io_retries += 1;
            }
            std::thread::sleep(config.retry.backoff(conn_index, i, attempt, suggested));
            if conn.is_none() {
                conn = connect(config).ok();
            }
        };
        // A `connection: close` response (shutdown, some 4xx paths)
        // means the server side of this socket is gone: drop it now so
        // the next request reconnects instead of burning an attempt on
        // a dead write.
        if let Some(response) = &terminal {
            if response
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
            {
                conn = None;
            }
        }
        tally.count_attempts(attempt);
        match terminal {
            Some(response) if response.status == 200 => {
                if valid_grid_body(&response.body) {
                    tally.latencies.push(started.elapsed());
                } else {
                    tally.invalid_bodies += 1;
                }
            }
            Some(response) => tally.count_status(response.status),
            // Budget exhausted while still transient.
            None => match last_transient {
                Some(status) => tally.count_status(status),
                None => tally.io_errors += 1,
            },
        }
        // The server closes the connection after non-keep-alive
        // responses (e.g. during shutdown); reconnect lazily.
        if conn.is_none() {
            conn = connect(config).ok();
        }
    }
    tally
}

fn percentile(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Runs the whole load: `connections` threads, each issuing
/// `requests_per_connection` requests from the template mix.
#[must_use]
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let mix = templates();
    let merged = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn_index in 0..config.connections {
            let mix = &mix;
            let merged = &merged;
            scope.spawn(move || {
                let tally = drive_connection(config, conn_index, mix);
                tpi::lock_unpoisoned(merged).merge(tally);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut tally = tpi::into_inner_unpoisoned(merged);
    tally.attempts_histogram.sort_unstable();
    let mut latencies = tally.latencies;
    latencies.sort_unstable();
    let ok = latencies.len();
    #[allow(clippy::cast_precision_loss)]
    let mean_ms = if ok == 0 {
        0.0
    } else {
        latencies.iter().map(Duration::as_secs_f64).sum::<f64>() / ok as f64 * 1e3
    };
    #[allow(clippy::cast_precision_loss)]
    LoadgenReport {
        connections: config.connections,
        requests: config.connections * config.requests_per_connection,
        ok,
        non_2xx: tally.non_2xx,
        invalid_bodies: tally.invalid_bodies,
        io_errors: tally.io_errors,
        retries: tally.retries,
        io_retries: tally.io_retries,
        retries_exhausted: tally.retries_exhausted,
        attempts_histogram: tally.attempts_histogram,
        elapsed_seconds: elapsed,
        throughput_rps: if elapsed > 0.0 {
            ok as f64 / elapsed
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        mean_ms,
        max_ms: latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::error_body;

    #[test]
    fn a_request_is_one_write() {
        let mut out = crate::http::tests::CountingWriter::default();
        write_request(&mut out, "POST", "/v1/experiments", templates()[0]).unwrap();
        assert_eq!(out.writes, 1, "head and body leave in one write");
        assert!(out.bytes.starts_with(b"POST /v1/experiments HTTP/1.1\r\n"));
        assert!(out.bytes.ends_with(templates()[0].as_bytes()));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert!((percentile(&sorted, 0.50) - 50.0).abs() < 1e-9);
        assert!((percentile(&sorted, 0.95) - 95.0).abs() < 1e-9);
        assert!((percentile(&sorted, 0.99) - 99.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_renders_as_json() {
        let report = LoadgenReport {
            connections: 2,
            requests: 4,
            ok: 4,
            non_2xx: vec![(503, 1)],
            invalid_bodies: 0,
            io_errors: 0,
            retries: 3,
            io_retries: 1,
            retries_exhausted: 1,
            attempts_histogram: vec![(1, 3), (4, 1)],
            elapsed_seconds: 1.0,
            throughput_rps: 4.0,
            p50_ms: 1.5,
            p95_ms: 2.0,
            p99_ms: 2.5,
            mean_ms: 1.6,
            max_ms: 2.5,
        };
        let doc = report.to_json();
        assert_eq!(doc.get("ok").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("retries").unwrap().as_u64(), Some(3));
        assert!(doc.render().contains("\"p99\":2.5"));
        assert!(doc.render().contains("\"attempts\":4"));
    }

    #[test]
    fn templates_are_valid_grid_requests() {
        use crate::wire::GridRequest;
        for body in templates() {
            let doc = parse(body).unwrap();
            let grid = GridRequest::parse(&doc).unwrap_or_else(|e| panic!("{body}: {}", e.message));
            assert!(!grid.cells().is_empty());
        }
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            budget: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            seed: 7,
        };
        for attempt in 1..=6 {
            let a = policy.backoff(3, 2, attempt, None);
            let b = policy.backoff(3, 2, attempt, None);
            assert_eq!(a, b, "same inputs, same sleep");
            assert!(a <= policy.max_backoff);
        }
        // Different requests draw different jitter somewhere in the
        // schedule.
        let schedule_a: Vec<_> = (1..=6).map(|k| policy.backoff(0, 0, k, None)).collect();
        let schedule_b: Vec<_> = (1..=6).map(|k| policy.backoff(1, 0, k, None)).collect();
        assert_ne!(schedule_a, schedule_b);
        // Retry-After raises the sleep but never beyond the cap.
        let suggested = policy.backoff(0, 0, 1, Some(Duration::from_secs(30)));
        assert_eq!(suggested, policy.max_backoff);
    }

    #[test]
    fn retryability_follows_the_error_code() {
        let resp = |status: u16, code: &str| Response {
            status,
            headers: vec![("retry-after".to_owned(), "1".to_owned())],
            body: error_body(code, "x").into_bytes(),
        };
        assert!(retryable(&resp(503, "overloaded")));
        assert!(retryable(&resp(500, "cell_panicked")));
        assert!(!retryable(&resp(503, "shutting_down")));
        assert!(!retryable(&resp(400, "bad_json")));
        assert!(!retryable(&resp(200, "ignored")));
        assert_eq!(
            retry_after(&resp(503, "overloaded")),
            Some(Duration::from_secs(1))
        );
    }
}
