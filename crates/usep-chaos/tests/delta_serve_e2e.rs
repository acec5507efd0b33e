//! End-to-end crash test for the `{"verb":"mutate"}` delta-session
//! protocol: a live server absorbs half a seeded mutation trace
//! through its warm engine, the disk dies mid-stream (FaultyIo power
//! cut), the server is stopped, and a second server `--resume`s from
//! the same (power-cycled) journal. The resumed server must rebuild
//! the session's warm state exactly — journaled mutations replay
//! exactly-once, duplicate sends answer byte-identical cached
//! outcomes, and the post-resume planning matches both the pre-crash
//! state and an in-process shadow engine bit for bit. A second test
//! times warm mutate round trips on one connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use usep_chaos::FaultyIo;
use usep_delta::{generate_trace, DeltaConfig, DeltaEngine, Mutation, TraceGenConfig};
use usep_serve::{JournalIo, MutateResponse, ServeConfig, Server};
use usep_trace::{Counter, NOOP};

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Sends `line` as one write, as a plain client would, and reads the
/// reply.
fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> MutateResponse {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response '{resp}': {e}"))
}

fn mutate_line(session: &str, id: &str, m: &Mutation) -> String {
    format!(
        r#"{{"verb":"mutate","session":"{session}","mutation_id":"{id}","mutation":{}}}"#,
        serde_json::to_string(m).unwrap()
    )
}

#[test]
fn mutate_sessions_survive_a_power_cut_with_exactly_once_replay() {
    let trace = generate_trace(&TraceGenConfig { seed: 1234, mutations: 24, events: 6, users: 9 });
    let open_line = format!(
        r#"{{"verb":"mutate","session":"s","open":{}}}"#,
        serde_json::to_string(&trace.instance).unwrap()
    );
    let split = 12;

    // the shadow: the same trace through an in-process engine with the
    // server's default config — the referee for every Ω the wire reports
    let mut shadow = DeltaEngine::new(trace.instance.clone(), DeltaConfig::default(), &NOOP);

    // ---- server A: honest disk, then a power cut mid-stream --------
    let disk = Arc::new(FaultyIo::clean());
    let server_a = Server::start(ServeConfig {
        journal_io: Some(Arc::clone(&disk) as Arc<dyn JournalIo>),
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = connect(server_a.addr());

    let opened = send(&mut stream, &mut reader, &open_line);
    assert!(opened.ok, "open failed: {:?}", opened.error);
    assert_eq!(opened.outcome.as_deref(), Some("opened"));
    assert_eq!(opened.omega.to_bits(), shadow.omega().to_bits(), "cold solves diverged");

    let mut responses_a = Vec::new();
    for (i, m) in trace.mutations[..split].iter().enumerate() {
        let resp = send(&mut stream, &mut reader, &mutate_line("s", &format!("m{i}"), m));
        assert!(resp.ok, "mutation m{i} rejected: {:?}", resp.error);
        let out = shadow.apply(m, &NOOP).unwrap();
        assert_eq!(resp.omega.to_bits(), out.omega.to_bits(), "m{i}: Ω diverged from shadow");
        assert_eq!(resp.evicted, out.evicted as u64, "m{i}");
        assert_eq!(resp.added, out.added as u64, "m{i}");
        responses_a.push(resp);
    }
    let pre_crash =
        send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","query":true}"#);
    assert!(pre_crash.ok);
    assert_eq!(pre_crash.mutations, split as u64);

    // the disk dies: the next mutation must be shed with a typed
    // journal-unavailable rejection — NOT applied, NOT cached — and
    // the connection must survive
    disk.power_off();
    let shed = send(&mut stream, &mut reader, &mutate_line("s", "m12", &trace.mutations[split]));
    assert!(!shed.ok, "a dead disk must shed the mutation");
    assert!(
        shed.error.as_deref().unwrap_or("").contains("journal unavailable"),
        "typed shed reason, got {:?}",
        shed.error
    );
    let still_there =
        send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","query":true}"#);
    assert_eq!(still_there.mutations, split as u64, "shed mutation must not have applied");

    drop(stream);
    server_a.shutdown();
    server_a.wait();

    // ---- power cycle + server B: --resume rebuilds the warm state --
    disk.power_cycle();
    let server_b = Server::start(ServeConfig {
        journal_io: Some(Arc::clone(&disk) as Arc<dyn JournalIo>),
        resume: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = connect(server_b.addr());

    // every journaled mutation replayed through the rebuilt engine
    assert_eq!(
        server_b.counter(Counter::DeltaMutation),
        split as u64,
        "resume must re-apply exactly the journaled mutations"
    );

    // idempotent re-open: answered from the rebuilt live state, and
    // the planning matches the pre-crash snapshot exactly
    let reopened = send(&mut stream, &mut reader, &open_line);
    assert!(reopened.ok);
    assert_eq!(reopened.outcome.as_deref(), Some("replayed"));
    assert_eq!(reopened.omega.to_bits(), pre_crash.omega.to_bits());
    assert_eq!(reopened.assignments, pre_crash.assignments);
    assert_eq!(reopened.mutations, pre_crash.mutations);

    // exactly-once: a duplicate of a pre-crash mutation id answers the
    // byte-identical cached outcome without touching the engine
    let dup = send(&mut stream, &mut reader, &mutate_line("s", "m3", &trace.mutations[3]));
    assert_eq!(
        serde_json::to_string(&dup).unwrap(),
        serde_json::to_string(&responses_a[3]).unwrap(),
        "duplicate mutation must answer the cached pre-crash outcome verbatim"
    );
    assert!(server_b.counter(Counter::ServeReplay) >= 2, "re-open + duplicate both replayed");
    let after_dup =
        send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","query":true}"#);
    assert_eq!(after_dup.mutations, split as u64, "the duplicate must not re-apply");

    // the mutation the dead disk shed never became durable, so the
    // retry gets its fresh chance now — then the rest of the trace
    for (i, m) in trace.mutations[split..].iter().enumerate() {
        let i = split + i;
        let resp = send(&mut stream, &mut reader, &mutate_line("s", &format!("m{i}"), m));
        assert!(resp.ok, "mutation m{i} rejected after resume: {:?}", resp.error);
        let out = shadow.apply(m, &NOOP).unwrap();
        assert_eq!(resp.omega.to_bits(), out.omega.to_bits(), "m{i}: Ω diverged from shadow");
    }
    assert_eq!(
        server_b.counter(Counter::ServeMutate),
        (trace.mutations.len() - split) as u64,
        "only the post-resume sends hit the live mutate path"
    );

    let final_state =
        send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","query":true}"#);
    assert_eq!(final_state.mutations, trace.mutations.len() as u64);
    assert_eq!(final_state.omega.to_bits(), shadow.omega().to_bits());
    assert_eq!(final_state.assignments, shadow.planning().num_assignments() as u64);

    // closed sessions stay closed across a (graceful) restart
    let closed = send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","close":true}"#);
    assert_eq!(closed.outcome.as_deref(), Some("closed"));
    drop(stream);
    server_b.shutdown();
    server_b.wait();

    let server_c = Server::start(ServeConfig {
        journal_io: Some(Arc::clone(&disk) as Arc<dyn JournalIo>),
        resume: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut stream, mut reader) = connect(server_c.addr());
    let gone = send(&mut stream, &mut reader, r#"{"verb":"mutate","session":"s","query":true}"#);
    assert!(!gone.ok, "a closed session must not be resurrected by resume");
    drop(stream);
    server_c.shutdown();
    server_c.wait();
}

/// A warm connection answers each mutate line as soon as it is applied.
/// A reply written as the line and then its newline, on a socket that
/// leaves Nagle's algorithm on, holds the newline until the client's
/// delayed ACK of the line: ≈40 ms a round trip, where a mutation on
/// this instance applies in well under a millisecond.
#[test]
fn warm_mutate_round_trips_do_not_wait_for_a_delayed_ack() {
    let trace = generate_trace(&TraceGenConfig { seed: 99, mutations: 80, events: 6, users: 9 });
    let server = Server::start(ServeConfig::default()).unwrap();
    // a plain client: no TCP_NODELAY of its own, one write per line
    let (mut stream, mut reader) = connect(server.addr());
    let open_line = format!(
        r#"{{"verb":"mutate","session":"w","open":{}}}"#,
        serde_json::to_string(&trace.instance).unwrap()
    );
    assert!(send(&mut stream, &mut reader, &open_line).ok);

    let mut round_trips = Vec::new();
    for (i, m) in trace.mutations.iter().enumerate() {
        let started = Instant::now();
        let resp = send(&mut stream, &mut reader, &mutate_line("w", &format!("w{i}"), m));
        round_trips.push(started.elapsed());
        assert!(resp.ok, "mutation w{i} rejected: {:?}", resp.error);
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median mutate round trip {median:?} over {} lines",
        round_trips.len()
    );
    drop(stream);
    server.shutdown();
    server.wait();
}
