//! End-to-end serve tests over real sockets: clean solves, typed
//! rejections, load shedding, idempotent replay, and journal resume.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};
use usep_algos::Algorithm;
use usep_core::Instance;
use usep_delta::{generate_trace, DeltaConfig, DeltaEngine, RepairKind, TraceGenConfig};
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{
    crc32, send_request, Journal, JournalRecord, JournalState, MutateResponse, ServeConfig, Server,
    SolveRequest, SolveResponse, Status,
};
use usep_trace::{Counter, NOOP};

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

/// The parser recurses once per nesting level on the connection's
/// thread: a line of 100 000 `[` once overflowed its stack and aborted
/// the whole server.
#[test]
fn a_line_nested_past_the_limit_is_rejected_and_the_server_keeps_serving() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    writeln!(stream, "{}", "[".repeat(100_000)).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match serde_json::from_str::<SolveResponse>(reply.trim_end()).unwrap().status {
        Status::Rejected { error } => {
            assert_eq!(error, "parse: recursion limit exceeded at byte 126")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let ok = send_request(server.addr(), &request("after-deep", 9), CLIENT_TIMEOUT).unwrap();
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
    // no tier ran, so nothing degraded: the response names the default
    // algorithm and no degraded series moved
    assert_eq!(resp.executed.as_deref(), Some("DeDPO"));
    assert_eq!(resp.retries, 0);
    let text = server.metrics().render();
    for line in text.lines().filter(|l| l.starts_with("usep_serve_degraded_total{")) {
        assert!(line.ends_with(" 0"), "nothing degraded, yet: {line}");
    }
    server.shutdown();
    server.wait();
}

/// A served DeDPO whose memory ceiling refuses its DP buffers degrades
/// once, to the chain's last tier, and answers with DeGreedy+RG's
/// planning.
#[test]
fn a_dedpo_request_that_trips_its_ceiling_answers_with_degreedy_rg() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let req = SolveRequest {
        algorithm: Some("dedpo".to_string()),
        mem_budget_mb: Some(0),
        ..request("no-memory", 13)
    };
    let resp = send_request(server.addr(), &req, CLIENT_TIMEOUT).unwrap();
    assert_eq!(resp.status, Status::Complete, "{resp:?}");
    assert_eq!(resp.executed.as_deref(), Some("DeGreedy+RG"));
    assert_eq!(resp.retries, 1);
    let planning = usep_algos::solve(Algorithm::DeGreedyRG, &req.instance);
    assert_eq!(resp.omega.to_bits(), planning.omega(&req.instance).to_bits());
    assert_eq!(resp.planning, Some(planning));
    server.shutdown();
    server.wait();
}

/// `{"DeltaOpen":…}` as journals written before opens named their cold
/// solve frame it: no `cold` member.
fn legacy_open_frame(session: &str, instance: &Instance) -> String {
    let record = format!(
        "{{\"DeltaOpen\":{{\"session\":\"{session}\",\"instance\":{},\
         \"fallback_threshold\":0.3}}}}",
        serde_json::to_string(instance).unwrap()
    );
    let crc = crc32(record.as_bytes());
    format!("{{\"len\":{},\"crc\":\"{crc:08x}\",\"rec\":{record}}}\n", record.len())
}

/// Every session journaled before opens named their cold solve ran
/// RatioGreedy, so `--resume` must rebuild it with RatioGreedy: a
/// duplicate mutation id answers, byte for byte, what an engine with
/// that cold solve answered when the mutation was first applied.
#[test]
fn a_session_journaled_without_a_cold_solve_resumes_with_ratio_greedy() {
    let dir = tempdir("legacy_session");
    let wal = dir.join("wal.jsonl");
    let trace = generate_trace(&TraceGenConfig { seed: 5, mutations: 24, ..Default::default() });
    let legacy = DeltaConfig { cold: Algorithm::RatioGreedy, ..DeltaConfig::default() };
    let opened = DeltaEngine::new(trace.instance.clone(), DeltaConfig::default(), &NOOP);
    let mut engine = DeltaEngine::new(trace.instance.clone(), legacy, &NOOP);
    assert_ne!(engine.omega(), opened.omega(), "the two cold solves must differ here");

    // what the dead server answered each mutation with
    let mut answered = Vec::new();
    for (i, m) in trace.mutations.iter().enumerate() {
        let out = engine.apply(m, &NOOP).unwrap();
        let stats = engine.stats();
        let outcome = if out.kind == RepairKind::Fallback { "fallback" } else { "repaired" };
        let resp = MutateResponse {
            mutation_id: Some(format!("m{i}")),
            omega: engine.omega(),
            drift: engine.drift(),
            assignments: engine.planning().num_assignments() as u64,
            evicted: out.evicted as u64,
            added: out.added as u64,
            touched: out.touched as u64,
            mutations: stats.mutations,
            repairs: stats.repairs,
            fallbacks: stats.fallbacks,
            ..MutateResponse::accepted("s", outcome)
        };
        answered.push(serde_json::to_string(&resp).unwrap());
    }
    assert!(engine.stats().fallbacks > 0, "the trace must fall back to a cold solve");

    // its journal: a header, the open in the old bytes, the mutations
    let journal = Journal::open(&wal).unwrap();
    let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    file.write_all(legacy_open_frame("s", &trace.instance).as_bytes()).unwrap();
    for (i, m) in trace.mutations.iter().enumerate() {
        let mutation_id = format!("m{i}");
        let mutation = m.clone();
        journal
            .append(&JournalRecord::DeltaMutate { session: "s".into(), mutation_id, mutation })
            .unwrap();
    }
    drop(journal);

    let cfg = ServeConfig { journal: Some(wal.clone()), resume: true, ..ServeConfig::default() };
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.counter(Counter::DeltaMutation), trace.mutations.len() as u64);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for (i, m) in trace.mutations.iter().enumerate() {
        let line = format!(
            r#"{{"verb":"mutate","session":"s","mutation_id":"m{i}","mutation":{}}}"#,
            serde_json::to_string(m).unwrap()
        );
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), answered[i], "m{i}");
    }
    assert_eq!(server.counter(Counter::DeltaMutation), trace.mutations.len() as u64);
    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
