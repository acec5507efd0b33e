//! Router integration: city routing, failover away from a dead shard,
//! fleet-level duplicate replay, shedding when every shard is gone, and
//! the metrics reconciliation identity — all against real in-process
//! `usep-serve` servers.

use std::sync::Arc;
use std::time::Duration;
use usep_fleet::{FleetMetrics, PartitionTable, RetryPolicy, Router, RouterConfig, ShardState};
use usep_serve::{send_request, ServeConfig, SolveRequest, SolveResponse, Status};
use usep_trace::{Counter, TraceSink};

fn request(id: &str, city: Option<&str>, seed: u64) -> SolveRequest {
    SolveRequest {
        id: id.to_string(),
        instance: std::sync::Arc::new(usep_gen::generate(
            &usep_gen::SyntheticConfig::tiny().with_events(5).with_users(12),
            seed,
        )),
        algorithm: None,
        timeout_ms: Some(10_000),
        mem_budget_mb: None,
        city: city.map(String::from),
    }
}

/// Starts one in-process shard server with a shard id (no journal —
/// journal semantics have their own tests).
fn shard_server(shard_id: &str) -> usep_serve::ServerHandle {
    usep_serve::Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shard_id: Some(shard_id.to_string()),
        ..ServeConfig::default()
    })
    .expect("start shard server")
}

struct TestFleet {
    shards: Vec<Arc<ShardState>>,
    sink: Arc<TraceSink>,
    metrics: Arc<FleetMetrics>,
    router: usep_fleet::RouterHandle,
}

/// Router over three shard slots: `shard-0` points at a dead address,
/// `shard-1`/`shard-2` at the two live servers. Vancouver is owned by
/// the dead shard, so every Vancouver request exercises failover.
fn test_fleet(live: &[&usep_serve::ServerHandle]) -> TestFleet {
    let mut shards = vec![Arc::new(ShardState::new("shard-0", "127.0.0.1:1"))];
    for (i, server) in live.iter().enumerate() {
        shards.push(Arc::new(ShardState::new(
            format!("shard-{}", i + 1),
            server.addr().to_string(),
        )));
    }
    let table = PartitionTable::new(
        shards.iter().map(|s| s.name.clone()).collect(),
        &[("vancouver".to_string(), "shard-0".to_string())],
    )
    .unwrap();
    let sink = Arc::new(TraceSink::new());
    let metrics = Arc::new(FleetMetrics::new(&shards, Arc::clone(&sink)));
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        table,
        shards: shards.clone(),
        retry: RetryPolicy { base: Duration::from_millis(1), cap: Duration::from_millis(5) },
        forward_timeout: Duration::from_secs(30),
        sweeps: 2,
        sink: Arc::clone(&sink),
        metrics: Arc::clone(&metrics),
    })
    .expect("start router");
    TestFleet { shards, sink, metrics, router }
}

#[test]
fn city_requests_fail_over_from_a_dead_shard_and_complete() {
    let a = shard_server("shard-1");
    let b = shard_server("shard-2");
    let fleet = test_fleet(&[&a, &b]);
    let addr = fleet.router.addr();

    // vancouver's owner is dead: the router must fail over and still
    // return a complete, shard-stamped planning
    let resp = send_request(addr, &request("van-1", Some("vancouver"), 7), secs(60)).unwrap();
    assert_eq!(resp.status, Status::Complete, "{resp:?}");
    let shard = resp.shard.as_deref().expect("response must carry the solving shard's stamp");
    assert!(shard == "shard-1" || shard == "shard-2", "unexpected shard {shard}");
    assert!(resp.planning.is_some());
    assert!(
        fleet.sink.counter(Counter::FleetFailover) >= 1,
        "failover away from the dead city owner must be counted"
    );
    assert_eq!(fleet.sink.counter(Counter::FleetRoute), 1);

    // the dead shard is now marked Down from first-hand evidence, so a
    // second vancouver request skips it without paying the connect
    assert_eq!(fleet.shards[0].health(), usep_fleet::Health::Down);
    let resp = send_request(addr, &request("van-2", Some("vancouver"), 8), secs(60)).unwrap();
    assert_eq!(resp.status, Status::Complete);

    // unlabeled requests rendezvous-hash to some live shard
    let resp = send_request(addr, &request("free-1", None, 9), secs(60)).unwrap();
    assert_eq!(resp.status, Status::Complete);

    a.shutdown();
    b.shutdown();
}

#[test]
fn duplicate_ids_replay_the_first_completion_without_a_second_solve() {
    let a = shard_server("shard-1");
    let b = shard_server("shard-2");
    let fleet = test_fleet(&[&a, &b]);
    let addr = fleet.router.addr();

    let first = send_request(addr, &request("dup-1", None, 11), secs(60)).unwrap();
    assert_eq!(first.status, Status::Complete);
    let completed_before: u64 =
        fleet.shards.iter().map(|s| s.completed.load(std::sync::atomic::Ordering::Relaxed)).sum();

    // same id again — even with a different city label — must answer
    // byte-identically from the router's cache, touching no shard
    let mut dup = request("dup-1", Some("vancouver"), 11);
    dup.timeout_ms = Some(9_999);
    let second = send_request(addr, &dup, secs(60)).unwrap();
    assert_eq!(serde_json::to_string(&second).unwrap(), serde_json::to_string(&first).unwrap());
    let completed_after: u64 =
        fleet.shards.iter().map(|s| s.completed.load(std::sync::atomic::Ordering::Relaxed)).sum();
    assert_eq!(completed_before, completed_after, "replay must not touch a shard");
    assert_eq!(fleet.sink.counter(Counter::FleetReplay), 1);
    assert_eq!(fleet.metrics.replayed.load(std::sync::atomic::Ordering::Relaxed), 1);

    a.shutdown();
    b.shutdown();
}

#[test]
fn all_shards_dead_sheds_with_a_typed_response_and_reconciles() {
    let a = shard_server("shard-1");
    let b = shard_server("shard-2");
    let fleet = test_fleet(&[&a, &b]);
    let addr = fleet.router.addr();

    // one good request first, so the identity has a completion in it
    let ok = send_request(addr, &request("pre-1", None, 13), secs(60)).unwrap();
    assert_eq!(ok.status, Status::Complete);

    // kill everything; the router must shed loudly, not hang or drop
    a.shutdown();
    b.shutdown();
    let resp = send_request(addr, &request("doomed-1", None, 14), secs(60)).unwrap();
    assert!(
        matches!(resp.status, Status::Overloaded { .. }),
        "exhausted fleet must answer a typed shed: {resp:?}"
    );
    assert_eq!(fleet.sink.counter(Counter::FleetShed), 1);

    // a malformed line is rejected by the router itself
    let garbage = raw_line(&addr.to_string(), "this is not json\n");
    let parsed: SolveResponse = serde_json::from_str(garbage.trim()).unwrap();
    assert!(matches!(parsed.status, Status::Rejected { .. }), "{parsed:?}");

    // reconciliation identity over everything this test sent:
    // requests = replayed + rejected + shed + Σ completed (+ inflight=0)
    use std::sync::atomic::Ordering::Relaxed;
    let requests = fleet.metrics.requests.load(Relaxed);
    let replayed = fleet.metrics.replayed.load(Relaxed);
    let rejected = fleet.metrics.rejected.load(Relaxed);
    let shed = fleet.metrics.shed.load(Relaxed);
    let completed: u64 = fleet.shards.iter().map(|s| s.completed.load(Relaxed)).sum();
    let inflight: u64 = fleet.shards.iter().map(|s| s.inflight.load(Relaxed)).sum();
    assert_eq!(requests, 3, "every line read counts, parseable or not");
    assert_eq!(rejected, 1);
    assert_eq!(requests, replayed + rejected + shed + completed + inflight);

    // and the registry exposes the same numbers
    let exposition = fleet.metrics.registry.render();
    assert!(exposition.contains("usep_fleet_requests_total 3"), "{exposition}");
    assert!(exposition.contains("usep_fleet_shed_total 1"), "{exposition}");
}

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// Writes one raw line to the router and reads one line back.
fn raw_line(addr: &str, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(secs(30))).unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply
}
