//! End-to-end serve tests over real sockets: clean solves, typed
//! rejections, load shedding, idempotent replay, and journal resume.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{
    send_request, Journal, JournalRecord, JournalState, MutateResponse, ServeConfig, Server,
    SolveRequest, SolveResponse, Status,
};
use usep_trace::Counter;

fn instance(seed: u64) -> Instance {
    generate(&SyntheticConfig::tiny().with_events(6).with_users(24).with_capacity_mean(4), seed)
}

fn request(id: &str, seed: u64) -> SolveRequest {
    SolveRequest {
        id: id.to_string(),
        instance: std::sync::Arc::new(instance(seed)),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    }
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("usep_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn solves_end_to_end_and_replays_duplicates_from_cache() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    let req = request("job-1", 7);
    let first = send_request(addr, &req, CLIENT_TIMEOUT).unwrap();
    assert_eq!(first.status, Status::Complete, "{first:?}");
    assert_eq!(first.id, "job-1");
    assert!(first.omega > 0.0);
    let planning = first.planning.as_ref().expect("complete responses carry the planning");
    planning.validate(&req.instance).unwrap();
    assert_eq!(first.executed.as_deref(), Some("DeDPO"));

    // same id again: answered from the completion cache, not re-solved
    let again = send_request(addr, &req, CLIENT_TIMEOUT).unwrap();
    assert_eq!(again.status, Status::Complete);
    assert_eq!(again.omega, first.omega);
    assert_eq!(server.counter(Counter::ServeReplay), 1);
    assert_eq!(server.counter(Counter::ServeAccept), 1);

    server.shutdown();
    server.wait();
}

#[test]
fn malformed_unknown_and_invalid_requests_are_rejected_not_fatal() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // every line on one connection: each rejection is typed and the
    // connection stays usable
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    };
    let rejection = |reply: String| {
        match serde_json::from_str::<SolveResponse>(reply.trim_end()).unwrap().status {
            Status::Rejected { error } => error,
            other => panic!("expected Rejected, got {other:?}"),
        }
    };

    // raw garbage, an unknown algorithm, JSON that is not a request
    // object, a verb that is not a string, an unknown verb and an empty
    // id: each is rejected with the exact text it has always had
    let mut bad_algo = request("job-2", 8);
    bad_algo.algorithm = Some("quantum-annealing".to_string());
    for (line, error) in [
        ("this is not json".to_string(), "parse: invalid literal (expected `true`) at byte 0"),
        (serde_json::to_string(&bad_algo).unwrap(), "unknown algorithm 'quantum-annealing'"),
        ("[1]".to_string(), "parse: expected map for SolveRequest, found a sequence"),
        (r#"{"verb":7}"#.to_string(), "parse: missing field `id` of SolveRequest"),
        (r#"{"verb":"nope"}"#.to_string(), "unknown verb 'nope'"),
        (serde_json::to_string(&request("", 8)).unwrap(), "empty request id"),
    ] {
        assert_eq!(rejection(exchange(&line)), error, "{line}");
    }

    // a mutate line whose body does not decode is a mutate rejection
    let reply = exchange(
        r#"{"verb":"mutate","session":"s","mutation_id":"m","mutation":{"Bogus":{}}}"#,
    );
    let reply: MutateResponse = serde_json::from_str(reply.trim_end()).unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.error.as_deref(), Some("parse: unknown variant `Bogus` of Mutation"));

    // a good request still works after every rejection
    let ok = send_request(addr, &request("job-3", 9), CLIENT_TIMEOUT).unwrap();
    assert_eq!(ok.status, Status::Complete);

    server.shutdown();
    server.wait();
}

/// The journal holds a request line as received. A line whose bytes a
/// re-encode would change (keys out of order, spaces, an unknown field,
/// escapes, a CRLF ending) must still replay as owed while its solve is
/// in flight, and decode to the request the server admitted.
#[test]
fn an_in_flight_non_canonical_request_replays_as_pending() {
    let dir = tempdir("received");
    let wal = dir.join("wal.jsonl");
    let cfg = ServeConfig {
        journal: Some(wal.clone()),
        chaos_delay_ms: 3000,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let inst = instance(40);
    let line = format!(
        "{{ \"timeout_ms\": 20000 , \"note\" : \"not a field\", \"instance\" : {} ,{}}}\r\n",
        serde_json::to_string(&inst).unwrap(),
        r#""id":"in\"fl\u00e9ght""#
    );
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream.write_all(line.as_bytes()).unwrap();

    // the accept record is durable before the solve starts, and each
    // solve first sleeps for the chaos delay
    let deadline = Instant::now() + CLIENT_TIMEOUT;
    let state = loop {
        let state = JournalState::replay(&wal).unwrap();
        if !state.pending.is_empty() || Instant::now() > deadline {
            break state;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(state.quarantined, 0);
    assert!(state.completed.is_empty(), "the solve is still in flight");
    assert_eq!(state.pending.len(), 1);
    let owed = &state.pending[0];
    assert_eq!(owed.id, "in\"fl\u{e9}ght");
    assert_eq!(owed.timeout_ms, Some(20_000));
    assert_eq!(*owed.instance, inst);

    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    let resp: SolveResponse = serde_json::from_str(reply.trim_end()).unwrap();
    assert_eq!((resp.id.as_str(), &resp.status), ("in\"fl\u{e9}ght", &Status::Complete));
    server.shutdown();
    server.wait();
    let state = JournalState::replay(&wal).unwrap();
    assert!(state.pending.is_empty());
    assert_eq!(state.completed.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_capacity_queue_sheds_with_overloaded() {
    let cfg = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let resp = send_request(server.addr(), &request("job-4", 10), CLIENT_TIMEOUT).unwrap();
    assert!(matches!(resp.status, Status::Overloaded { .. }), "{resp:?}");
    assert_eq!(server.counter(Counter::ServeShed), 1);
    assert_eq!(server.counter(Counter::ServeAccept), 0);
    server.shutdown();
    server.wait();
}

#[test]
fn memory_ledger_sheds_oversized_requests_without_stickiness() {
    // ledger smaller than the estimate of a 6×24 instance (≈ 2.6 KB)
    let cfg = ServeConfig { max_reserved_bytes: 1024, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let resp = send_request(addr, &request("big", 11), CLIENT_TIMEOUT).unwrap();
    assert!(matches!(resp.status, Status::Overloaded { .. }), "{resp:?}");

    // a tiny instance still fits afterwards: refusals are per-request
    let tiny = SolveRequest {
        id: "small".to_string(),
        instance: std::sync::Arc::new(generate(
            &SyntheticConfig::tiny().with_events(2).with_users(3).with_capacity_mean(2),
            12,
        )),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    };
    let resp = send_request(addr, &tiny, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, Status::Complete, "{resp:?}");

    server.shutdown();
    server.wait();
}

#[test]
fn resume_drains_journaled_pending_requests_without_a_client() {
    let dir = tempdir("resume");
    let wal = dir.join("wal.jsonl");

    // a dead server's journal: two accepted, one of them completed
    let journal = Journal::open(&wal).unwrap();
    journal.append(&JournalRecord::Accepted { request: request("done", 20) }).unwrap();
    journal
        .append(&JournalRecord::Completed {
            response: SolveResponse::bare("done", Status::Complete),
        })
        .unwrap();
    journal.append(&JournalRecord::Accepted { request: request("owed", 21) }).unwrap();
    drop(journal);

    let cfg = ServeConfig {
        journal: Some(wal.clone()),
        resume: true,
        max_requests: Some(1), // drain the one owed solve, then stop
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.resumed(), 1, "only the incomplete accept is re-enqueued");
    server.wait(); // exits via max_requests once the owed solve lands

    let state = JournalState::replay(&wal).unwrap();
    assert!(state.pending.is_empty(), "no accepted request may stay owed");
    assert_eq!(state.completed.len(), 2);
    let owed = &state.completed["owed"];
    assert_eq!(owed.status, Status::Complete, "{owed:?}");
    owed.planning.as_ref().unwrap().validate(&instance(21)).unwrap();

    // replaying the drained journal again re-enqueues nothing
    let cfg = ServeConfig {
        journal: Some(wal.clone()),
        resume: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.resumed(), 0);

    // and a duplicate of a journal-completed id answers from the cache
    let resp = send_request(server.addr(), &request("owed", 21), CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, Status::Complete);
    assert_eq!(server.counter(Counter::ServeReplay), 1);
    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn server_side_caps_bound_client_budgets() {
    // the server caps a huge requested timeout at its own max; with a
    // 0ms server cap every tier's budget is exhausted immediately
    let cfg = ServeConfig { max_timeout_ms: 0, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    let mut req = request("greedy-client", 30);
    req.timeout_ms = Some(86_400_000);
    let resp = send_request(server.addr(), &req, CLIENT_TIMEOUT).unwrap();
    match &resp.status {
        Status::Truncated { reason } => assert_eq!(reason, "deadline"),
        other => panic!("expected deadline truncation, got {other:?}"),
    }
    // even a zero-budget response carries a (possibly empty) valid planning
    resp.planning.as_ref().unwrap().validate(&req.instance).unwrap();
    server.shutdown();
    server.wait();
}
