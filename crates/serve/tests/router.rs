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

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpi::Runner;
use tpi_serve::json::{parse, Json};
use tpi_serve::loadgen::post;
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

    let metrics = tpi_serve::loadgen::get(router.addr(), "/metrics", CLIENT_TIMEOUT)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
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

    let metrics = tpi_serve::loadgen::get(router.addr(), "/metrics", CLIENT_TIMEOUT)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
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
