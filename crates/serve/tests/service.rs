//! End-to-end tests of the experiment service.
//!
//! The central property: responses served under concurrency are
//! byte-identical to a direct serial [`tpi::Runner`] run rendered through
//! the same `render_cell` pipeline — batching, memoization, and
//! single-flight deduplication must never change the answer. The
//! remaining tests pin the robustness paths: backpressure → 503,
//! deadline → 504, malformed body → 400, and the discovery endpoints.
//! The framing and shared-route tests run twice: against a replica, and
//! against a router fronting one, since both answer those the same way.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use tpi::Runner;
use tpi_serve::json::{parse, Json};
use tpi_serve::loadgen::{self, get, post, LoadgenConfig, RetryPolicy};
use tpi_serve::router::{Router, RouterConfig};
use tpi_serve::server::{ServeConfig, Server};
use tpi_serve::wire::{render_cell, GridRequest};
use tpi_serve::FaultPlan;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn start(config: ServeConfig) -> (Server, SocketAddr) {
    let server = Server::start(config).expect("bind an ephemeral port");
    let addr = server.addr();
    assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");
    (server, addr)
}

/// A replica on its own, or behind a router: the two fronts the shared
/// HTTP routes and framing errors are pinned on.
struct Front {
    replica: Server,
    router: Option<Router>,
}

impl Front {
    fn start(routed: bool) -> Front {
        let (replica, _) = start(ServeConfig::default());
        let router = routed.then(|| {
            Router::start(RouterConfig {
                replicas: vec![replica.addr()],
                ..RouterConfig::default()
            })
            .expect("bind an ephemeral port")
        });
        Front { replica, router }
    }

    fn addr(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.replica.addr(), Router::addr)
    }

    /// `POST /admin/shutdown` to the front wakes its
    /// `wait_for_shutdown_request`.
    fn shutdown_via_admin(self) {
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match &self.router {
                Some(router) => router.wait_for_shutdown_request(),
                None => self.replica.wait_for_shutdown_request(),
            });
            let bye = post(self.addr(), "/admin/shutdown", "", CLIENT_TIMEOUT).unwrap();
            assert_eq!(bye.status, 200);
            waiter.join().unwrap();
        });
        if let Some(router) = self.router {
            router.shutdown();
        }
        self.replica.shutdown();
    }
}

/// What the server must return for `body`: every cell computed by a
/// fresh *serial* runner, rendered through the same pure function.
fn expected_response(runner: &Runner, body: &str) -> String {
    let grid = GridRequest::parse(&parse(body).unwrap()).unwrap();
    let rendered: Vec<Json> = grid
        .cells()
        .iter()
        .map(|key| {
            let config = key.config().unwrap();
            let result = runner.run_kernel(key.kernel, key.scale, &config).unwrap();
            render_cell(key, &result)
        })
        .collect();
    let count = rendered.len();
    Json::obj([("cells", Json::Arr(rendered)), ("count", Json::from(count))]).render()
}

/// Reads one `name value` sample out of a Prometheus text body.
fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[test]
fn concurrent_overlapping_requests_match_a_serial_runner() {
    // Three grids that overlap pairwise, so concurrent requests contend
    // for the same cells.
    let bodies = [
        r#"{"kernels":["FLO52"],"schemes":["TPI","HW"]}"#,
        r#"{"kernels":["FLO52","TRFD"],"schemes":["TPI"]}"#,
        r#"{"kernels":["TRFD"],"schemes":["TPI","SC"]}"#,
    ];
    let unique_cells: HashSet<_> = bodies
        .iter()
        .flat_map(|body| GridRequest::parse(&parse(body).unwrap()).unwrap().cells())
        .collect();

    let serial = Runner::serial();
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| expected_response(&serial, body))
        .collect();

    let (server, addr) = start(ServeConfig::default());
    // Four clients per grid, all in flight at once.
    std::thread::scope(|scope| {
        for round in 0..4 {
            for (body, want) in bodies.iter().zip(&expected) {
                scope.spawn(move || {
                    let response = post(addr, "/v1/experiments", body, CLIENT_TIMEOUT)
                        .expect("request completes");
                    assert_eq!(response.status, 200, "round {round}: {body}");
                    assert_eq!(
                        String::from_utf8_lossy(&response.body),
                        want.as_str(),
                        "served bytes must match the serial runner ({body})"
                    );
                });
            }
        }
    });

    // Single-flight: every duplicate cell was answered from the result
    // cache or by joining an in-flight computation, never recomputed.
    let metrics = get(addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    let computed = metric_value(&text, "tpi_serve_cells_computed_total").unwrap();
    let cached = metric_value(&text, "tpi_serve_cells_cached_total").unwrap();
    let joined = metric_value(&text, "tpi_serve_cells_joined_total").unwrap();
    let total_fetches: usize = bodies.len() * 4 * 2; // 12 requests x 2 cells
    assert!(
        (computed - unique_cells.len() as f64).abs() < 0.5,
        "each unique cell computed exactly once, got {computed}"
    );
    assert!(
        (cached + joined - (total_fetches - unique_cells.len()) as f64).abs() < 0.5,
        "duplicates must hit the cache or join a flight (cached {cached}, joined {joined})"
    );
    assert!(cached + joined > 0.0, "single-flight must be visible");

    let stats = server.shutdown();
    assert_eq!(stats.cells_computed as usize, unique_cells.len());
    assert_eq!(stats.experiment_requests as usize, bodies.len() * 4);
    assert_eq!(stats.rejected_queue_full, 0);
    assert_eq!(stats.rejected_timeout, 0);
}

#[test]
fn queue_overflow_is_a_503_with_retry_after() {
    // A 3-cell grid cannot fit a capacity-1 queue: all-or-nothing
    // submission refuses the request outright, no timing involved.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    let body = r#"{"kernels":["FLO52","TRFD","QCD2"]}"#;
    let response = post(addr, "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    let doc = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("overloaded")
    );

    // A request that fits still succeeds: the refusal cached nothing.
    let ok = post(
        addr,
        "/v1/experiments",
        r#"{"kernels":["FLO52"]}"#,
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(ok.status, 200);

    let stats = server.shutdown();
    assert!(stats.rejected_queue_full >= 1);
}

#[test]
fn a_missed_deadline_is_a_504() {
    let (server, addr) = start(ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(50),
        fault: Some(Arc::new(FaultPlan::parse("cell_latency=1:400").unwrap())),
        ..ServeConfig::default()
    });
    let response = post(
        addr,
        "/v1/experiments",
        r#"{"kernels":["FLO52"]}"#,
        CLIENT_TIMEOUT,
    )
    .unwrap();
    assert_eq!(response.status, 504);
    let doc = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("timeout")
    );
    let stats = server.shutdown();
    assert!(stats.rejected_timeout >= 1);
}

#[test]
fn malformed_bodies_are_structured_400s() {
    let (server, addr) = start(ServeConfig::default());
    for (body, want_code) in [
        ("{not json", "bad_json"),
        ("[1,2,3]", "bad_field"),
        (r#"{"kernels":["NOPE"]}"#, "bad_field"),
        (r#"{"tag_bits":1}"#, "bad_machine"),
    ] {
        let response = post(addr, "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
        assert_eq!(response.status, 400, "{body}");
        let doc = parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(want_code),
            "{body}"
        );
    }
    let metrics = get(addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(metric_value(&text, "tpi_serve_bad_requests_total").unwrap() >= 4.0);
    server.shutdown();
}

#[test]
fn discovery_health_and_routing() {
    for routed in [false, true] {
        let front = Front::start(routed);
        let addr = front.addr();

        let kernels = get(addr, "/v1/kernels", CLIENT_TIMEOUT).unwrap();
        assert_eq!(kernels.status, 200);
        let body = String::from_utf8(kernels.body).unwrap();
        assert!(body.contains("FLO52") && body.contains("OCEAN"), "{body}");
        let direct = get(front.replica.addr(), "/v1/kernels", CLIENT_TIMEOUT).unwrap();
        assert_eq!(body.as_bytes(), direct.body, "routed {routed}");

        let schemes = get(addr, "/v1/schemes", CLIENT_TIMEOUT).unwrap();
        assert_eq!(schemes.status, 200);
        let body = String::from_utf8(schemes.body).unwrap();
        assert!(body.contains("TPI") && body.contains("HW"), "{body}");
        let direct = get(front.replica.addr(), "/v1/schemes", CLIENT_TIMEOUT).unwrap();
        assert_eq!(body.as_bytes(), direct.body, "routed {routed}");
        // Metadata objects, not bare labels: every entry carries the
        // scheme's registry identity and storage cost.
        let doc = parse(&body).unwrap();
        let items = doc.get("schemes").and_then(Json::as_array).unwrap();
        for item in items {
            for field in [
                "id",
                "label",
                "description",
                "paper_main",
                "storage_bits_per_word",
            ] {
                assert!(item.get(field).is_some(), "missing {field}: {body}");
            }
        }
        assert!(
            items
                .iter()
                .any(|s| s.get("id").and_then(Json::as_str) == Some("tardis")),
            "{body}"
        );

        let health = get(addr, "/healthz", CLIENT_TIMEOUT).unwrap();
        assert_eq!(health.status, 200);
        let doc = parse(std::str::from_utf8(&health.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        let sized = if routed {
            "healthy_replicas"
        } else {
            "workers"
        };
        assert!(doc.get(sized).and_then(Json::as_u64).unwrap() >= 1);

        // Wrong method on a known path vs unknown path.
        assert_eq!(
            get(addr, "/v1/experiments", CLIENT_TIMEOUT).unwrap().status,
            405
        );
        assert_eq!(get(addr, "/nope", CLIENT_TIMEOUT).unwrap().status, 404);

        front.shutdown_via_admin();
    }
}

/// The `error.code` of a structured error response.
fn error_code(body: &[u8]) -> Option<String> {
    parse(std::str::from_utf8(body).ok()?)
        .ok()?
        .get("error")?
        .get("code")?
        .as_str()
        .map(str::to_owned)
}

#[test]
fn a_panicking_cell_fails_every_waiter_with_a_500_then_recomputes() {
    // Exactly the first computation panics; the artificial delay holds
    // the cell in flight long enough for concurrent identical requests
    // to join the one doomed flight.
    let plan = Arc::new(FaultPlan::parse("seed=1,worker_panic=1@1,cell_latency=1:150").unwrap());
    let (server, addr) = start(ServeConfig {
        workers: 1,
        fault: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    });
    let body = r#"{"kernels":["FLO52"],"schemes":["TPI"]}"#;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || post(addr, "/v1/experiments", body, CLIENT_TIMEOUT).unwrap())
            })
            .collect();
        for handle in handles {
            let response = handle.join().unwrap();
            assert_eq!(response.status, 500);
            assert_eq!(error_code(&response.body).as_deref(), Some("cell_panicked"));
        }
    });

    // The panic was never cached: the identical request recomputes and
    // serves bytes matching a fresh serial runner.
    let retry = post(addr, "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
    assert_eq!(retry.status, 200);
    assert_eq!(
        String::from_utf8_lossy(&retry.body),
        expected_response(&Runner::serial(), body)
    );

    let metrics = get(addr, "/metrics", CLIENT_TIMEOUT).unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(metric_value(&text, "tpi_cell_panics_total").unwrap() >= 1.0);
    assert!(
        metric_value(&text, "tpi_faults_injected_total{site=\"worker_panic\"}").unwrap() >= 1.0
    );

    let stats = server.shutdown();
    assert!(stats.cell_panics >= 1);
}

#[test]
fn garbage_bytes_get_a_400_or_a_close_and_the_server_survives() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    for routed in [false, true] {
        let front = Front::start(routed);
        let addr = front.addr();
        let payloads: [&[u8]; 3] = [
            b"THIS IS NOT HTTP\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
            b"\x00\xff\x00\xff\r\n\r\n",
        ];
        for payload in payloads {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(payload).unwrap();
            let mut raw = Vec::new();
            // The server either answers a structured 400 and closes, or
            // (for byte soup it cannot frame) just closes. It must never
            // hang.
            let _ = stream.read_to_end(&mut raw);
            if !raw.is_empty() {
                let head = String::from_utf8_lossy(&raw);
                assert!(head.starts_with("HTTP/1.1 4"), "routed {routed}: {head}");
            }
        }
        // The handler threads died with their connections, not the
        // service: a normal request still works.
        let ok = post(
            addr,
            "/v1/experiments",
            r#"{"kernels":["FLO52"]}"#,
            CLIENT_TIMEOUT,
        )
        .unwrap();
        assert_eq!(ok.status, 200, "routed {routed}");
        front.shutdown_via_admin();
    }
}

#[test]
fn the_retry_budget_converges_against_injected_transient_503s() {
    // Exactly the first two experiment handlings are refused with the
    // transient 503; the retrying load generator must absorb both and
    // still bring every request home.
    let plan = Arc::new(FaultPlan::parse("seed=3,overload=1@2").unwrap());
    let (server, addr) = start(ServeConfig {
        workers: 2,
        fault: Some(plan),
        ..ServeConfig::default()
    });
    let report = loadgen::run(&LoadgenConfig {
        addr,
        connections: 1,
        requests_per_connection: 3,
        timeout: CLIENT_TIMEOUT,
        retry: RetryPolicy {
            budget: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            seed: 3,
        },
    });
    assert_eq!(report.ok, 3, "{report:?}");
    assert_eq!(report.retries, 2, "{report:?}");
    assert_eq!(report.retries_exhausted, 0, "{report:?}");
    assert!(report.non_2xx.is_empty(), "{report:?}");
    // The first request took 3 attempts; the other two took 1.
    assert_eq!(report.attempts_histogram, vec![(1, 2), (3, 1)]);
    server.shutdown();
}

#[test]
fn shutdown_under_load_answers_every_queued_request() {
    // One slow worker that dies (unsupervised, since stop is already
    // requested) right after its first cell: the two cells left in the
    // queue have no worker to drain them, and the waiting request must
    // still get a terminal structured 503 before the final stats line.
    let plan = Arc::new(FaultPlan::parse("seed=5,worker_exit=1@1,cell_latency=1:300").unwrap());
    let (server, addr) = start(ServeConfig {
        workers: 1,
        fault: Some(plan),
        ..ServeConfig::default()
    });
    let client = std::thread::spawn(move || {
        post(
            addr,
            "/v1/experiments",
            r#"{"kernels":["FLO52","TRFD","QCD2"],"schemes":["TPI"]}"#,
            CLIENT_TIMEOUT,
        )
        .unwrap()
    });
    // Let the request get queued and the worker get busy on cell 1.
    std::thread::sleep(Duration::from_millis(100));
    let bye = post(addr, "/admin/shutdown", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(bye.status, 200);
    let stats = server.shutdown();
    let response = client.join().unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(error_code(&response.body).as_deref(), Some("shutting_down"));
    // The worker died after its first cell and was (correctly) not
    // respawned during shutdown.
    assert_eq!(stats.worker_restarts, 0);
    assert!(stats.cells_computed >= 1);
}

#[test]
fn the_binary_reports_its_ephemeral_port_and_shuts_down_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_tpi-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tpi-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("a ready line")
        .expect("readable stdout");
    let addr: SocketAddr = ready
        .strip_prefix("tpi-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected ready line {ready:?}"))
        .parse()
        .expect("a socket address");
    assert_ne!(addr.port(), 0);

    let health = get(addr, "/healthz", CLIENT_TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    let bye = post(addr, "/admin/shutdown", "", CLIENT_TIMEOUT).unwrap();
    assert_eq!(bye.status, 200);
    let status = child.wait().expect("process exits");
    assert!(status.success(), "{status:?}");
}
