//! End-to-end tests of `tpi-router` fronting real in-process replicas.
//!
//! Three promises, pinned over real sockets:
//!
//! 1. **No hangs when the fleet is gone.** With every replica past its
//!    health lease the router answers `503` with a `Retry-After` header
//!    and the terminal `all_replicas_draining` code — promptly.
//! 2. **Failover is invisible to clients.** With one replica dead but
//!    still inside its lease, every cell it owned fails over and the
//!    response stays byte-identical to a fresh serial runner.
//! 3. **Global single-flight.** Identical in-flight cells from different
//!    client connections reach a replica exactly once.
//!
//! And the forwarding path under them: router→replica connections are
//! pooled and reused, a pooled connection a restarted replica closed is
//! replaced without a failover, and a replica whose answer declares an
//! absurd body costs a failed attempt, never a wedged cell.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi::Runner;
use tpi_serve::http::read_request;
use tpi_serve::json::{parse, Json};
use tpi_serve::loadgen::{get, post};
use tpi_serve::router::{Router, RouterConfig};
use tpi_serve::server::{ServeConfig, Server};
use tpi_serve::wire::{render_cell, GridRequest};
use tpi_serve::FaultPlan;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn start_router(replicas: Vec<SocketAddr>, lease: Duration) -> Router {
    Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_owned(),
        replicas,
        probe_interval: Duration::from_millis(25),
        lease,
        ..RouterConfig::default()
    })
    .expect("bind an ephemeral port")
}

/// An address nothing listens on: bind an ephemeral port, then drop it.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

/// What the fleet must return for `body`: every cell computed by a
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

/// The `/metrics` page of a router or replica.
fn metrics(addr: SocketAddr) -> String {
    get(addr, "/metrics", CLIENT_TIMEOUT)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default()
}

/// A replica impostor: until `stop` is set it answers every request on
/// every connection, one connection at a time, with a head that declares
/// a `content-length` of `u64::MAX`.
fn serve_lies(listener: &TcpListener, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mut reader = BufReader::new(&stream);
        while read_request(&mut reader, 1 << 20).is_ok() {
            let head = b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n";
            if (&stream).write_all(head).is_err() {
                break;
            }
        }
    }
}

#[test]
fn an_all_draining_fleet_gets_a_prompt_503_with_retry_after() {
    // One replica that was never alive; a short lease so the prober
    // drains it quickly.
    let router = start_router(vec![dead_addr()], Duration::from_millis(100));

    let deadline = Instant::now() + Duration::from_secs(10);
    while router.healthy_replicas() > 0 {
        assert!(
            Instant::now() < deadline,
            "the prober never drained a dead replica"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let started = Instant::now();
    let response = post(
        router.addr(),
        "/v1/experiments",
        r#"{"kernels":["FLO52"],"schemes":["TPI"]}"#,
        CLIENT_TIMEOUT,
    )
    .expect("the router must answer, not hang");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an empty fleet must be rejected promptly, took {:?}",
        started.elapsed()
    );
    assert_eq!(response.status, 503);
    assert!(
        response.header("retry-after").is_some(),
        "terminal drain rejections still carry Retry-After"
    );
    let body = String::from_utf8_lossy(&response.body).into_owned();
    assert!(
        body.contains("all_replicas_draining"),
        "want the terminal drain code, got {body}"
    );

    let stats = router.shutdown();
    assert!(stats.rejected_draining > 0, "{stats:?}");
}

#[test]
fn a_dead_replica_inside_its_lease_fails_over_byte_identically() {
    let victim = Server::start(ServeConfig::default()).unwrap();
    let survivor = Server::start(ServeConfig::default()).unwrap();
    let victim_addr = victim.addr();

    // A one-hour lease: the victim's death is never observed by the
    // prober, so every one of its cells exercises the failover path
    // rather than the drain path.
    let router = start_router(
        vec![victim_addr, survivor.addr()],
        Duration::from_secs(3600),
    );
    victim.shutdown();

    // 16 cells, so the ring all but surely places some on the dead
    // replica no matter which ephemeral ports the OS handed out.
    let body = r#"{"kernels":["FLO52","TRFD"],"schemes":["TPI","HW"],"procs":[4,8,16,32]}"#;
    let response = post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
    assert_eq!(
        response.status,
        200,
        "failover must be invisible: {}",
        String::from_utf8_lossy(&response.body)
    );
    assert_eq!(
        String::from_utf8_lossy(&response.body),
        expected_response(&Runner::serial(), body),
        "failed-over responses stay byte-identical to a serial runner"
    );

    let metrics = metrics(router.addr());
    assert!(
        metric_value(&metrics, "tpi_router_failovers_total").unwrap_or(0.0) > 0.0,
        "some cell must have failed over off the dead replica:\n{metrics}"
    );

    router.shutdown();
    let stats = survivor.shutdown();
    assert!(
        stats.experiment_requests >= 16,
        "every cell must land on the survivor: {stats:?}"
    );
}

#[test]
fn identical_inflight_cells_are_forwarded_exactly_once() {
    // One slow replica, so the second client reliably arrives while the
    // first's cell is still in flight.
    let replica = Server::start(ServeConfig {
        fault: Some(Arc::new(FaultPlan::parse("cell_latency=1:500").unwrap())),
        ..ServeConfig::default()
    })
    .unwrap();
    let router = start_router(vec![replica.addr()], Duration::from_secs(3600));

    let body = r#"{"kernels":["FLO52"],"schemes":["TPI"]}"#;
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT));
        let b = scope.spawn(|| post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT));
        (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
    });
    assert_eq!(first.status, 200);
    assert_eq!(second.status, 200);
    assert_eq!(first.body, second.body);

    let metrics = metrics(router.addr());
    assert!(
        metric_value(&metrics, "tpi_router_cells_joined_total").unwrap_or(0.0) >= 1.0,
        "the follower must join the leader's in-flight slot:\n{metrics}"
    );

    router.shutdown();
    let stats = replica.shutdown();
    assert_eq!(
        stats.experiment_requests, 1,
        "the replica must see the deduplicated cell once: {stats:?}"
    );
}

#[test]
fn sequential_forwards_reuse_a_pooled_replica_connection() {
    let replica = Server::start(ServeConfig::default()).unwrap();
    // One probe at boot, then none for the rest of the test: only
    // forwards and scrapes open connections to the replica.
    let router = Router::start(RouterConfig {
        replicas: vec![replica.addr()],
        probe_interval: Duration::from_secs(3600),
        lease: Duration::from_secs(3600),
        ..RouterConfig::default()
    })
    .unwrap();
    let connections =
        || metric_value(&metrics(replica.addr()), "tpi_serve_connections_total").unwrap();

    let before = connections();
    let body = r#"{"kernels":["FLO52"],"schemes":["TPI"]}"#;
    for _ in 0..32 {
        let response = post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
        assert_eq!(response.status, 200);
    }
    // The pooled connection, the second scrape, and perhaps the boot
    // probe; one connection per forward would be 32 more.
    let opened = connections() - before;
    assert!(
        opened <= 4.0,
        "32 sequential forwards opened {opened} replica connections"
    );

    router.shutdown();
    replica.shutdown();
}

#[test]
fn a_restarted_replica_is_reached_without_a_failover() {
    let replica = Server::start(ServeConfig::default()).unwrap();
    let addr = replica.addr();
    // A one-hour lease: the restart is never seen by the prober, so the
    // next forward meets the pooled connection the old replica closed.
    let router = start_router(vec![addr], Duration::from_secs(3600));
    let body = r#"{"kernels":["FLO52"],"schemes":["TPI","HW"]}"#;
    let expected = expected_response(&Runner::serial(), body);
    let first = post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
    assert_eq!(String::from_utf8_lossy(&first.body), expected);

    let failovers =
        || metric_value(&metrics(router.addr()), "tpi_router_failovers_total").unwrap_or(0.0);
    let failovers_before = failovers();
    replica.shutdown();
    let restarted = Server::start(ServeConfig {
        addr: addr.to_string(),
        ..ServeConfig::default()
    })
    .expect("rebind the old replica's address");

    let response = post(router.addr(), "/v1/experiments", body, CLIENT_TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        String::from_utf8_lossy(&response.body),
        expected,
        "the restarted replica answers byte-identically"
    );
    assert_eq!(
        failovers(),
        failovers_before,
        "replacing a closed pooled connection is not a failover"
    );

    router.shutdown();
    restarted.shutdown();
}

#[test]
fn a_replica_declaring_a_huge_body_costs_an_attempt_not_a_wedged_cell() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let (response, inflight, stats) = std::thread::scope(|scope| {
        scope.spawn(|| serve_lies(&listener, &stop));
        let router = start_router(vec![addr], Duration::from_secs(3600));
        let response = post(
            router.addr(),
            "/v1/experiments",
            r#"{"kernels":["FLO52"],"schemes":["TPI"]}"#,
            CLIENT_TIMEOUT,
        );
        let inflight = router.inflight_cells();
        let stats = router.shutdown();
        stop.store(true, Ordering::Release);
        // Wake the impostor's blocking accept so it sees `stop`.
        let _ = TcpStream::connect(addr);
        (response, inflight, stats)
    });

    let response = response.expect("the router must answer, not drop the connection");
    let body = String::from_utf8_lossy(&response.body).into_owned();
    assert_eq!(response.status, 503, "{body}");
    assert!(body.contains("upstream_unavailable"), "{body}");
    assert_eq!(inflight, 0, "the cell's in-flight slot must be released");
    assert_eq!(stats.cells_unavailable, 1, "{stats:?}");
}
