//! The serve loop: accept, admit, journal, solve behind a fence, reply.
//!
//! Thread layout:
//!
//! * one **accept** thread owning the `TcpListener`;
//! * one **connection** thread per client connection, which parses
//!   each line once, validates, admits and journals requests (the
//!   line's own bytes), then blocks on the reply channel and writes the
//!   response line;
//! * `workers` **solver** threads draining one shared job queue. Each
//!   job runs the [`GuardedSolver`] degradation chain behind a
//!   `catch_unwind` fence.
//!
//! Shutdown is cooperative: set the flag, poke the listener with a
//! dummy connection, let connection threads finish their in-flight
//! request, and let the workers drain the queue until the job channel
//! disconnects. Nothing is dropped on a *graceful* stop; on a crash
//! (`SIGKILL`) the journal carries the pending set instead.

use crate::admission::{Admission, ShedReason, Ticket};
use crate::io::{JournalIo, StdIo};
use crate::journal::{Journal, JournalRecord, JournalState};
use crate::obs::ServeMetrics;
use crate::protocol::{
    estimate_instance_bytes, ControlRequest, MutateRequest, MutateResponse, PhaseTimings,
    SolveRequest, SolveResponse, Status,
};
use serde::{Content, Deserialize};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use usep_algos::{Algorithm, GuardedSolver};
use usep_delta::{DeltaConfig, DeltaEngine, Mutation, RepairKind};
use usep_guard::{SolveBudget, TruncationReason};
use usep_obs::http;
use usep_trace::{json, Counter, Probe, RequestCtx, RequestProbe, TraceSink};

/// Server configuration. The defaults are sized for tests and small
/// deployments; production callers should size `queue_capacity` and
/// `max_reserved_bytes` to their tail latency and RAM.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address
    /// is on the [`ServerHandle`]).
    pub addr: String,
    /// Solver threads draining the queue.
    pub workers: usize,
    /// Bounded queue slots (queued + solving).
    pub queue_capacity: usize,
    /// Byte capacity of the admission ledger.
    pub max_reserved_bytes: usize,
    /// Hard server-side cap on a request's wall-clock budget; also the
    /// budget for requests that ask for none. The server never runs an
    /// unbounded solve.
    pub max_timeout_ms: u64,
    /// Server-side cap on a request's memory ceiling. `None` leaves
    /// requests without one uncapped (the admission ledger still
    /// bounds aggregate footprint).
    pub max_mem_budget_bytes: Option<usize>,
    /// Algorithm for requests that name none.
    pub default_algorithm: Algorithm,
    /// Write-ahead journal path; `None` disables durability.
    pub journal: Option<PathBuf>,
    /// Journal storage backend override. When set, it wins over
    /// `journal`: the write-ahead log goes through this [`JournalIo`]
    /// instead of a file. This is how `usep-chaos` slots its seeded
    /// `FaultyIo` (torn writes, lying fsyncs, bit rot, ENOSPC) under a
    /// real server without the server knowing.
    pub journal_io: Option<Arc<dyn JournalIo>>,
    /// Replay the journal before serving: re-enqueue accepted-but-
    /// incomplete requests, remember completed ids.
    pub resume: bool,
    /// Read timeout on client connections.
    pub conn_read_timeout: Duration,
    /// Stop (gracefully) after this many journaled completions —
    /// resumed solves count. For tests and drain scripts.
    pub max_requests: Option<u64>,
    /// Fault injection: arm every tier's guard with a chaos trip
    /// (memory-ceiling reason) at this checkpoint count.
    pub chaos_trip: Option<u64>,
    /// Fault injection: panic inside the fence on every Nth solve.
    pub chaos_panic_every: Option<u64>,
    /// Fault injection: sleep this long inside each solve, to widen
    /// the kill window for crash/recovery tests.
    pub chaos_delay_ms: u64,
    /// Bind address for the metrics/health HTTP listener (`/metrics`,
    /// `/healthz`, `/buildinfo`, `/flightrec`); `None` disables it.
    /// Use port 0 to let the OS pick ([`ServerHandle::metrics_addr`]
    /// reports the bound address).
    pub metrics_addr: Option<String>,
    /// Ring-buffer slots in the flight recorder (last-N annotated
    /// events, dumped via the `dump` verb, on contained panics, and at
    /// shutdown).
    pub flight_recorder_capacity: usize,
    /// Stable shard name when this server runs as a fleet worker. The
    /// journal is stamped with it (and resume refuses a journal stamped
    /// with a *different* shard), and every response carries it so the
    /// router and clients can see which shard solved what.
    pub shard_id: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_reserved_bytes: 256 * 1024 * 1024,
            max_timeout_ms: 30_000,
            max_mem_budget_bytes: None,
            default_algorithm: Algorithm::DeDPO,
            journal: None,
            journal_io: None,
            resume: false,
            conn_read_timeout: Duration::from_secs(30),
            max_requests: None,
            chaos_trip: None,
            chaos_panic_every: None,
            chaos_delay_ms: 0,
            metrics_addr: None,
            flight_recorder_capacity: 256,
            shard_id: None,
        }
    }
}

struct Job {
    request: SolveRequest,
    /// Admission hold; `None` for journal-resumed jobs (their client
    /// is gone, nothing is queued on their behalf).
    ticket: Option<Ticket>,
    /// Where the response goes; `None` for resumed jobs (journal only).
    reply: Option<crossbeam::channel::Sender<SolveResponse>>,
    /// When the job entered the queue (queue-wait phase starts here).
    enqueued_at: Instant,
    /// Wall-clock spent in parse/screen/admit/journal before enqueue.
    admission_ms: f64,
}

/// One live delta session: the warm engine plus the exactly-once
/// response cache keyed by mutation id. A duplicate mutation id —
/// client retry, or a re-send across a crash + `--resume` — answers
/// the cached outcome without touching the engine.
struct DeltaSession {
    engine: DeltaEngine,
    applied: std::collections::BTreeMap<String, MutateResponse>,
}

struct Inner {
    cfg: ServeConfig,
    admission: Arc<Admission>,
    journal: Option<Journal>,
    completed: Mutex<std::collections::BTreeMap<String, SolveResponse>>,
    /// Live delta sessions by name ({"verb":"mutate"} state).
    delta: Mutex<std::collections::BTreeMap<String, DeltaSession>>,
    sink: Arc<TraceSink>,
    obs: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    solves_started: AtomicU64,
    completions: AtomicU64,
}

/// A running server. Dropping the handle does not stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::wait`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    http: Mutex<Option<http::HttpHandle>>,
    metrics_addr: Option<SocketAddr>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Requests resumed from the journal at startup.
    pub fn resumed(&self) -> u64 {
        self.inner.sink.counter(Counter::ServeResume)
    }

    /// Snapshot of one serve/solver counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.sink.counter(c)
    }

    /// The trace sink collecting the server's counters and histograms.
    pub fn sink(&self) -> &TraceSink {
        &self.inner.sink
    }

    /// The metrics plane: registry, flight recorder and hot-path cells.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.obs
    }

    /// The bound metrics listener address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Requests a graceful stop: no new connections, queue drained.
    pub fn shutdown(&self) {
        self.inner.initiate_shutdown();
    }

    /// Blocks until every thread has exited (after [`Self::shutdown`]
    /// or a `max_requests` stop), then stops the metrics listener and
    /// dumps the flight recorder to stderr — the service's black box
    /// survives into the logs on every stop path.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(mut h) = self.http.lock().unwrap_or_else(|p| p.into_inner()).take() {
            h.shutdown();
        }
        let obs = &self.inner.obs;
        obs.recorder.record("shutdown", None, "server drained");
        eprintln!("usep-serve: flight recorder at shutdown: {}", obs.recorder.dump_json());
    }
}

impl Inner {
    fn initiate_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // unblock the accept() call
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn journal_append(&self, record: &JournalRecord) -> std::io::Result<()> {
        match &self.journal {
            Some(j) => j.append(record),
            None => Ok(()),
        }
    }
}

/// The server type; [`Server::start`] is the only entry point.
pub struct Server;

impl Server {
    /// Binds, replays the journal when resuming, spawns the worker and
    /// accept threads, and returns the running server's handle.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        // Resolve the journal backend: an explicit JournalIo override
        // wins (fault injection, tests); otherwise a path becomes the
        // production StdIo; otherwise durability is off.
        let journal_io: Option<Arc<dyn JournalIo>> = match (&cfg.journal_io, &cfg.journal) {
            (Some(io), _) => Some(Arc::clone(io)),
            (None, Some(path)) => Some(Arc::new(StdIo::open(path)?)),
            (None, None) => None,
        };
        let mut resumed_state = match (&journal_io, cfg.resume) {
            (Some(io), true) => match &cfg.shard_id {
                Some(shard) => JournalState::replay_io_expecting(io.as_ref(), shard)?,
                None => JournalState::replay_io(io.as_ref())?,
            },
            (None, true) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "resume requested without a journal path",
                ));
            }
            _ => JournalState::default(),
        };
        let journal = journal_io
            .map(|io| Journal::from_io(io, cfg.shard_id.as_deref()))
            .transpose()?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let admission = Arc::new(Admission::new(cfg.queue_capacity, cfg.max_reserved_bytes));
        let sink = Arc::new(TraceSink::new());
        let obs = Arc::new(ServeMetrics::new(
            Arc::clone(&sink),
            Arc::clone(&admission),
            cfg.flight_recorder_capacity,
        ));

        // The metrics plane listens on its own socket so scrapes never
        // compete with solve traffic for the accept loop.
        let (http_handle, metrics_addr) = match &cfg.metrics_addr {
            Some(maddr) => {
                let handle = http::serve(maddr, metrics_routes(&obs, &cfg, addr))?;
                let bound = handle.addr();
                (Some(handle), Some(bound))
            }
            None => (None, None),
        };

        // Surface what replay had to survive, then compact: the resumed
        // state is re-snapshotted as one generation-stamped header plus
        // the live records, atomically — so journals shrink instead of
        // growing without bound across --resume cycles, and quarantined
        // rot does not ride along forever.
        if resumed_state.quarantined > 0 {
            sink.count(Counter::JournalQuarantine, resumed_state.quarantined);
            obs.recorder.record(
                "quarantine",
                None,
                format!("{} corrupt journal record(s) skipped on replay", resumed_state.quarantined),
            );
            eprintln!(
                "usep-serve: quarantined {} corrupt journal record(s) on replay",
                resumed_state.quarantined
            );
        }
        if cfg.resume {
            if let Some(j) = &journal {
                match j.compact(&resumed_state) {
                    Ok(()) => {
                        sink.count(Counter::JournalCompaction, 1);
                        obs.recorder.record(
                            "compact",
                            None,
                            format!(
                                "journal compacted to generation {} ({} pending, {} completed)",
                                resumed_state.generation + 1,
                                resumed_state.pending.len(),
                                resumed_state.completed.len()
                            ),
                        );
                    }
                    // Non-fatal: an append-only journal that cannot be
                    // compacted is still a correct journal, just a big one.
                    Err(e) => eprintln!("usep-serve: journal compaction failed: {e}"),
                }
            }
        }

        // Rebuild delta-session warm state from the journal: re-run
        // each open session's cold solve (the one its open record
        // names), then re-apply its journaled mutations in acceptance
        // order. The engine is deterministic, so the rebuilt warm state
        // (and every cached per-mutation outcome) is exactly what the
        // dead server held.
        let mut delta_map = std::collections::BTreeMap::new();
        for (name, s) in std::mem::take(&mut resumed_state.delta_sessions) {
            let engine = DeltaEngine::new(
                (*s.instance).clone(),
                DeltaConfig { fallback_threshold: s.fallback_threshold, cold: s.cold },
                &*sink,
            );
            let mut session = DeltaSession { engine, applied: Default::default() };
            for (mutation_id, mutation) in &s.mutations {
                apply_session_mutation(&name, &mut session, mutation_id, mutation, &*sink);
            }
            obs.recorder.record(
                "delta_resume",
                None,
                format!(
                    "session '{name}' rebuilt: {} journaled mutation(s) re-applied, Ω={:.3}",
                    s.mutations.len(),
                    session.engine.omega()
                ),
            );
            delta_map.insert(name, session);
        }

        let inner = Arc::new(Inner {
            admission,
            journal,
            completed: Mutex::new(resumed_state.completed.into_iter().collect()),
            delta: Mutex::new(delta_map),
            sink,
            obs,
            shutdown: AtomicBool::new(false),
            addr,
            solves_started: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            cfg,
        });
        if resumed_state.torn_tail {
            eprintln!("usep-serve: journal had a torn final line (crash mid-append); ignored");
        }

        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();

        // Re-enqueue in-flight work from the journal before accepting
        // any traffic, preserving the dead server's acceptance order.
        for request in resumed_state.pending {
            inner.sink.count(Counter::ServeResume, 1);
            inner.obs.recorder.record("resume", Some(&request.id), "re-enqueued from journal");
            let _ = job_tx.send(Job {
                request,
                ticket: None,
                reply: None,
                enqueued_at: Instant::now(),
                admission_ms: 0.0,
            });
        }

        let worker_threads: Vec<_> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let rx = job_rx.clone();
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        process_job(&inner, job);
                    }
                })
            })
            .collect();
        drop(job_rx);

        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&accept_inner, &listener, job_tx);
        });

        Ok(ServerHandle {
            inner,
            accept_thread: Some(accept_thread),
            worker_threads,
            http: Mutex::new(http_handle),
            metrics_addr,
        })
    }
}

/// The metrics listener's path router: exposition, liveness, build
/// identity, and the flight-recorder dump.
fn metrics_routes(obs: &Arc<ServeMetrics>, cfg: &ServeConfig, solve_addr: SocketAddr) -> http::Handler {
    let registry = Arc::clone(&obs.registry);
    let recorder = Arc::clone(&obs.recorder);
    let buildinfo = json::Value::Map(vec![
        ("service".to_string(), json::Value::Str("usep-serve".to_string())),
        ("version".to_string(), json::Value::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("solve_addr".to_string(), json::Value::Str(solve_addr.to_string())),
        ("workers".to_string(), json::Value::U64(cfg.workers.max(1) as u64)),
        ("queue_capacity".to_string(), json::Value::U64(cfg.queue_capacity as u64)),
        (
            "default_algorithm".to_string(),
            json::Value::Str(cfg.default_algorithm.name().to_string()),
        ),
        (
            "shard".to_string(),
            json::Value::Str(cfg.shard_id.clone().unwrap_or_default()),
        ),
    ])
    .render();
    Box::new(move |path| match path {
        "/metrics" => Some(http::Response::text(registry.render())),
        "/healthz" => Some(http::Response::text("ok\n")),
        "/buildinfo" => Some(http::Response::json(buildinfo.clone())),
        "/flightrec" => Some(http::Response::json(recorder.dump_json())),
        _ => None,
    })
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener, job_tx: crossbeam::channel::Sender<Job>) {
    let mut conn_threads = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("usep-serve: accept error: {e}");
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let inner = Arc::clone(inner);
        let job_tx = job_tx.clone();
        conn_threads.push(std::thread::spawn(move || {
            handle_connection(&inner, stream, &job_tx);
        }));
    }
    // finish in-flight connections before letting the job channel
    // disconnect, so every admitted request gets its response line
    for t in conn_threads {
        let _ = t.join();
    }
}

fn write_response<W: Write>(out: &mut W, response: &SolveResponse) -> std::io::Result<()> {
    let line = serde_json::to_string(response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_line(out, line)
}

/// Sends `line` and its `"\n"` in one `write_all`, the newline pushed
/// onto the encoded line rather than copied into a second buffer.
/// Written as the line and then its newline, a reply costs two sends,
/// and on a socket without `TCP_NODELAY` the newline of a reply on a
/// warm connection waits for the client's delayed ACK of the line
/// (≈40 ms).
fn write_line<W: Write>(out: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// Readies an accepted connection. `TCP_NODELAY` lets each reply leave
/// as soon as it is written, instead of Nagle's algorithm holding a
/// short segment until the client ACKs the previous one. The short read
/// timeout is [`handle_connection`]'s poll interval: an idle connection
/// is dropped after `conn_read_timeout` of silence, and a graceful
/// shutdown is never held hostage by an open idle connection.
fn prepare_connection(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
}

/// One request line, parsed once and sorted by what it asks for. `Err`
/// holds the parse rejection's text.
pub(crate) enum Line<'a> {
    /// A `mutate` control line: one delta-session operation, with the
    /// received bytes of its `open` member when it has one.
    Mutate(Result<MutateRequest, String>, Option<&'a str>),
    /// Any other control line.
    Control(ControlRequest),
    /// Everything that is not a control line.
    Solve(Result<SolveRequest, String>),
}

/// How deeply a request line may nest. The journal holds a line, or a
/// line's `open` value, one or two levels deeper than the line
/// (`{"Accepted":{"request":…}}`, `{"DeltaOpen":{…,"instance":…}}`), so
/// every line the server answers leaves a record that replay can parse.
pub(crate) const LINE_DEPTH_LIMIT: usize = serde_json::RECURSION_LIMIT - 2;

/// Parses `line` into one JSON tree and decodes the request from that
/// tree. A control line is a JSON object whose first `verb` key holds a
/// string — exactly the lines [`ControlRequest`] decodes; solve requests
/// never carry one.
pub(crate) fn parse_line(line: &str) -> Line<'_> {
    let (tree, spans) = match serde_json::from_str_spanned(line, LINE_DEPTH_LIMIT) {
        Ok(parsed) => parsed,
        Err(e) => return Line::Solve(Err(format!("parse: {e}"))),
    };
    let Content::Map(entries) = &tree else {
        return Line::Solve(SolveRequest::from_content(tree).map_err(|e| format!("parse: {e}")));
    };
    // the first of a duplicated key is the one a decode takes
    let member = |key: &str| entries.iter().position(|(k, _)| k == key);
    match member("verb").map(|i| &entries[i].1) {
        Some(Content::Str(verb)) if verb == "mutate" => {
            let open = member("open").map(|i| &line[spans[i].clone()]);
            Line::Mutate(MutateRequest::from_content(tree).map_err(|e| format!("parse: {e}")), open)
        }
        Some(Content::Str(verb)) => Line::Control(ControlRequest { verb: verb.clone() }),
        _ => Line::Solve(SolveRequest::from_content(tree).map_err(|e| format!("parse: {e}"))),
    }
}

/// Pre-validates one decoded request. `Err` is the typed rejection to
/// send back.
fn screen_request(request: SolveRequest) -> Result<SolveRequest, Box<SolveResponse>> {
    if request.id.is_empty() {
        return Err(Box::new(SolveResponse::bare(
            "",
            Status::Rejected { error: "empty request id".to_string() },
        )));
    }
    if let Some(name) = &request.algorithm {
        if Algorithm::parse(name).is_none() {
            return Err(Box::new(SolveResponse::bare(
                request.id.clone(),
                Status::Rejected { error: format!("unknown algorithm '{name}'") },
            )));
        }
    }
    if let Err(e) = request.instance.validate() {
        return Err(Box::new(SolveResponse::bare(
            request.id.clone(),
            Status::Rejected { error: format!("invalid instance: {e}") },
        )));
    }
    // Lower to the flat SoA view once, here on the admission path: every
    // retry tier and journal replay shares the cached lowering through
    // the request's `Arc<Instance>` instead of re-freezing per attempt.
    request.instance.freeze();
    Ok(request)
}

fn handle_connection(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    job_tx: &crossbeam::channel::Sender<Job>,
) {
    prepare_connection(&stream);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = std::io::BufReader::new(read_half);
    let mut line = String::new();
    'conn: loop {
        line.clear();
        let mut idle = Instant::now();
        let mut seen = 0;
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => break 'conn, // client closed
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // mid-line bytes stay in `line`; keep appending
                    if line.len() > seen {
                        seen = line.len();
                        idle = Instant::now();
                    }
                    if inner.shutdown.load(Ordering::SeqCst)
                        || idle.elapsed() >= inner.cfg.conn_read_timeout
                    {
                        break 'conn;
                    }
                }
                Err(_) => break 'conn, // reset
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let admission_started = Instant::now();
        let obs = &inner.obs;

        // Control plane: verb lines are answered here, never queued.
        let parsed = match parse_line(&line) {
            Line::Solve(parsed) => parsed,
            Line::Mutate(req, received_open) => {
                let response = match req {
                    Ok(req) => handle_mutate(inner, req, received_open),
                    Err(error) => MutateResponse::rejected("", error),
                };
                let reply = serde_json::to_string(&response).unwrap_or_default();
                if write_line(&mut stream, reply).is_err() {
                    break;
                }
                continue;
            }
            Line::Control(ControlRequest { verb }) => {
                let reply = if verb == "dump" {
                    obs.recorder.record("dump", None, "flight recorder dumped on request");
                    obs.recorder.dump_json()
                } else {
                    serde_json::to_string(&SolveResponse::bare(
                        "",
                        Status::Rejected { error: format!("unknown verb '{verb}'") },
                    ))
                    .unwrap_or_default()
                };
                if write_line(&mut stream, reply).is_err() {
                    break;
                }
                continue;
            }
        };

        obs.requests.fetch_add(1, Ordering::Relaxed);
        let screened = parsed
            .map_err(|error| Box::new(SolveResponse::bare("", Status::Rejected { error })))
            .and_then(screen_request);
        let request = match screened {
            Ok(r) => r,
            Err(rejection) => {
                obs.rejected.fetch_add(1, Ordering::Relaxed);
                let id = if rejection.id.is_empty() { None } else { Some(rejection.id.as_str()) };
                let detail = match &rejection.status {
                    Status::Rejected { error } => error.clone(),
                    s => s.describe(),
                };
                obs.recorder.record("reject", id, detail);
                if write_response(&mut stream, &rejection).is_err() {
                    break;
                }
                continue;
            }
        };

        // Idempotent replay: a completed id answers from the journal
        // cache, solving nothing.
        let cached = inner
            .completed
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&request.id)
            .cloned();
        if let Some(response) = cached {
            inner.sink.count(Counter::ServeReplay, 1);
            obs.recorder.record("replay", Some(&request.id), "answered from completion cache");
            if write_response(&mut stream, &response).is_err() {
                break;
            }
            continue;
        }

        // Admission: queue slot + estimated bytes, or shed.
        let estimate = estimate_instance_bytes(&request.instance);
        let ticket = match inner.admission.try_admit(estimate) {
            Ok(t) => t,
            Err(reason) => {
                inner.sink.count(Counter::ServeShed, 1);
                let cell = match reason {
                    ShedReason::QueueFull => &obs.shed_queue_full,
                    ShedReason::MemoryPressure => &obs.shed_memory,
                };
                cell.fetch_add(1, Ordering::Relaxed);
                let (queue_depth, reserved_bytes) =
                    (inner.admission.depth(), inner.admission.reserved_bytes());
                obs.recorder.record(
                    "shed",
                    Some(&request.id),
                    format!("{reason:?}: depth={queue_depth} reserved={reserved_bytes}"),
                );
                let response = SolveResponse::bare(
                    request.id.clone(),
                    Status::Overloaded { queue_depth, reserved_bytes },
                );
                if write_response(&mut stream, &response).is_err() {
                    break;
                }
                continue;
            }
        };

        // Write-ahead: the accept record is durable before the solve
        // can begin; a crash after this point re-enqueues on resume.
        // It holds the line as received, which decoded to `request`, so
        // replay decodes the same request without this thread encoding
        // it again.
        // A failed append (ENOSPC, dead disk) sheds THIS request with a
        // typed Failed response — the connection stays up and the next
        // request gets its own chance, because a full disk is the
        // request's problem, not the TCP session's.
        let accepted = inner.journal.as_ref().map_or(Ok(()), |j| j.append_accepted(&line));
        if let Err(e) = accepted {
            inner.sink.count(Counter::ServeJournalFail, 1);
            obs.failed_journal.fetch_add(1, Ordering::Relaxed);
            obs.recorder
                .record("journal_fail", Some(&request.id), format!("accept append: {e}"));
            let response = SolveResponse::bare(
                request.id.clone(),
                Status::Failed { panic: format!("journal unavailable: {e}") },
            );
            if write_response(&mut stream, &response).is_err() {
                break;
            }
            continue; // ticket drops, slot returns
        }
        inner.sink.count(Counter::ServeAccept, 1);
        inner.sink.record("serve.queue_depth", inner.admission.depth() as f64);
        obs.recorder.record(
            "admit",
            Some(&request.id),
            format!("estimate={estimate}B depth={}", inner.admission.depth()),
        );

        let (reply_tx, reply_rx) = crossbeam::channel::unbounded::<SolveResponse>();
        if job_tx
            .send(Job {
                request,
                ticket: Some(ticket),
                reply: Some(reply_tx),
                enqueued_at: Instant::now(),
                admission_ms: admission_started.elapsed().as_secs_f64() * 1e3,
            })
            .is_err()
        {
            break; // workers gone: server is shutting down
        }
        match reply_rx.recv() {
            Ok(response) => {
                if write_response(&mut stream, &response).is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Snapshot reply for open/query/replayed-open: the session's current
/// Ω, drift and lifetime repair stats, no per-mutation fields.
fn session_snapshot(name: &str, session: &DeltaSession, outcome: &str) -> MutateResponse {
    let stats = session.engine.stats();
    MutateResponse {
        omega: session.engine.omega(),
        drift: session.engine.drift(),
        assignments: session.engine.planning().num_assignments() as u64,
        mutations: stats.mutations,
        repairs: stats.repairs,
        fallbacks: stats.fallbacks,
        ..MutateResponse::accepted(name, outcome)
    }
}

/// Applies one (already-journaled) mutation to a session's engine and
/// caches the outcome under its exactly-once key. Shared between the
/// live mutate path and journal replay at startup, so a resumed server
/// rebuilds byte-identical cached responses.
fn apply_session_mutation(
    name: &str,
    session: &mut DeltaSession,
    mutation_id: &str,
    mutation: &Mutation,
    probe: &dyn Probe,
) -> MutateResponse {
    let response = match session.engine.apply(mutation, probe) {
        Ok(out) => {
            let outcome = match out.kind {
                RepairKind::Repaired => "repaired",
                RepairKind::Fallback => "fallback",
            };
            MutateResponse {
                mutation_id: Some(mutation_id.to_string()),
                evicted: out.evicted as u64,
                added: out.added as u64,
                touched: out.touched as u64,
                ..session_snapshot(name, session, outcome)
            }
        }
        // a rejected mutation leaves the warm state untouched; the
        // rejection is still cached so a duplicate answers identically
        Err(e) => MutateResponse {
            mutation_id: Some(mutation_id.to_string()),
            omega: session.engine.omega(),
            drift: session.engine.drift(),
            ..MutateResponse::rejected(name, format!("mutation rejected: {e}"))
        },
    };
    session.applied.insert(mutation_id.to_string(), response.clone());
    response
}

/// Serves one `{"verb":"mutate"}` line: journal first, engine second,
/// exactly-once on the client's mutation id. Open and close are
/// idempotent; a duplicate mutation id answers its cached outcome
/// verbatim without touching the engine. `received_open` is the line's
/// `open` member as received, which an open journals instead of
/// encoding the instance it decoded to again.
fn handle_mutate(inner: &Inner, req: MutateRequest, received_open: Option<&str>) -> MutateResponse {
    let obs = &inner.obs;
    let mut sessions = inner.delta.lock().unwrap_or_else(|p| p.into_inner());

    if let Some(instance) = &req.open {
        if let Some(session) = sessions.get(&req.session) {
            // idempotent re-open: the client retrying across a crash
            // finds its session already rebuilt from the journal
            inner.sink.count(Counter::ServeReplay, 1);
            obs.recorder.record(
                "delta_open",
                None,
                format!("session '{}' already open; answered from live state", req.session),
            );
            return session_snapshot(&req.session, session, "replayed");
        }
        if let Err(e) = instance.validate() {
            return MutateResponse::rejected(&req.session, format!("invalid instance: {e}"));
        }
        let defaults = DeltaConfig::default();
        let cfg = DeltaConfig {
            fallback_threshold: req.fallback_threshold.unwrap_or(defaults.fallback_threshold),
            ..defaults
        };
        let received = received_open.expect("a decoded `open` member has received bytes");
        let opened = inner.journal.as_ref().map_or(Ok(()), |j| {
            j.append_delta_open(&req.session, received, cfg.fallback_threshold, cfg.cold)
        });
        if let Err(e) = opened {
            inner.sink.count(Counter::ServeJournalFail, 1);
            obs.failed_journal.fetch_add(1, Ordering::Relaxed);
            obs.recorder.record("journal_fail", None, format!("delta open append: {e}"));
            return MutateResponse::rejected(&req.session, format!("journal unavailable: {e}"));
        }
        let engine = DeltaEngine::new((**instance).clone(), cfg, &*inner.sink);
        let session = DeltaSession { engine, applied: Default::default() };
        let response = session_snapshot(&req.session, &session, "opened");
        obs.recorder.record(
            "delta_open",
            None,
            format!("session '{}' opened: Ω={:.3}", req.session, response.omega),
        );
        sessions.insert(req.session.clone(), session);
        return response;
    }

    if req.close {
        if let Err(e) =
            inner.journal_append(&JournalRecord::DeltaClose { session: req.session.clone() })
        {
            inner.sink.count(Counter::ServeJournalFail, 1);
            obs.failed_journal.fetch_add(1, Ordering::Relaxed);
            obs.recorder.record("journal_fail", None, format!("delta close append: {e}"));
            return MutateResponse::rejected(&req.session, format!("journal unavailable: {e}"));
        }
        let existed = sessions.remove(&req.session).is_some();
        obs.recorder.record("delta_close", None, format!("session '{}' closed", req.session));
        // closing an unknown session is the idempotent no-op a client
        // retrying a lost close reply needs
        return MutateResponse::accepted(&req.session, if existed { "closed" } else { "replayed" });
    }

    if let (Some(mutation_id), Some(mutation)) = (&req.mutation_id, &req.mutation) {
        let Some(session) = sessions.get_mut(&req.session) else {
            return MutateResponse::rejected(&req.session, "unknown session (open it first)");
        };
        if let Some(cached) = session.applied.get(mutation_id) {
            // exactly-once: the duplicate answers the cached outcome
            // verbatim, engine untouched
            inner.sink.count(Counter::ServeReplay, 1);
            obs.recorder.record(
                "delta_replay",
                Some(mutation_id),
                "duplicate mutation answered from the exactly-once cache",
            );
            return cached.clone();
        }
        // WAL before apply: the mutation is durable before the engine
        // sees it, so a crash between the two replays it on resume
        if let Err(e) = inner.journal_append(&JournalRecord::DeltaMutate {
            session: req.session.clone(),
            mutation_id: mutation_id.clone(),
            mutation: mutation.clone(),
        }) {
            inner.sink.count(Counter::ServeJournalFail, 1);
            obs.failed_journal.fetch_add(1, Ordering::Relaxed);
            obs.recorder.record("journal_fail", Some(mutation_id), format!("delta append: {e}"));
            // NOT cached: the mutation never became durable, so a
            // retry must get a fresh chance
            return MutateResponse::rejected(&req.session, format!("journal unavailable: {e}"));
        }
        inner.sink.count(Counter::ServeMutate, 1);
        let response =
            apply_session_mutation(&req.session, session, mutation_id, mutation, &*inner.sink);
        obs.recorder.record(
            "mutate",
            Some(mutation_id),
            format!(
                "session '{}': {} Ω={:.3} drift={:.3} evicted={} added={}",
                req.session,
                response.outcome.as_deref().unwrap_or("rejected"),
                response.omega,
                response.drift,
                response.evicted,
                response.added
            ),
        );
        return response;
    }

    if req.query {
        return match sessions.get(&req.session) {
            Some(session) => session_snapshot(&req.session, session, "queried"),
            None => MutateResponse::rejected(&req.session, "unknown session"),
        };
    }

    MutateResponse::rejected(
        &req.session,
        "mutate needs one of: open, mutation + mutation_id, query, close",
    )
}

/// Runs one job start to finish: fence, retry chain, journal, reply.
fn process_job(inner: &Arc<Inner>, job: Job) {
    let obs = &inner.obs;
    let queue_wait_ms = job.enqueued_at.elapsed().as_secs_f64() * 1e3;
    inner.sink.record("serve.queue_wait_ms", queue_wait_ms);
    obs.inflight.fetch_add(1, Ordering::Relaxed);

    let started = Instant::now();
    let mut response = solve_request(inner, &job.request);
    inner.sink.record("serve.solve_ms", started.elapsed().as_secs_f64() * 1e3);

    // Fleet workers stamp their identity on everything they solve, so
    // the journal's completion records and the router's replies both
    // say which shard produced the answer.
    if response.shard.is_none() {
        response.shard = inner.cfg.shard_id.clone();
    }

    // Patch the pre-worker phases into the breakdown the solve filled.
    let timings = response.timings.get_or_insert_with(PhaseTimings::default);
    timings.queue_wait_ms = queue_wait_ms;
    timings.admission_ms = job.admission_ms;

    match &response.status {
        Status::Complete => {
            obs.completed_complete.fetch_add(1, Ordering::Relaxed);
        }
        Status::Truncated { .. } => {
            obs.completed_truncated.fetch_add(1, Ordering::Relaxed);
        }
        // Failed cells tick inside the retry chain, where the reason
        // (panic vs infeasible) is known; nothing to do here.
        _ => {}
    }
    if let Some(executed) = &response.executed {
        let requested = job
            .request
            .algorithm
            .as_deref()
            .and_then(Algorithm::parse)
            .unwrap_or(inner.cfg.default_algorithm);
        if executed != requested.name() {
            obs.count_degraded(executed);
        }
    }
    obs.recorder.record(
        "done",
        Some(&response.id),
        format!("{} omega={:.3} retries={}", response.status.describe(), response.omega, response.retries),
    );

    // A completion that fails to journal still answers the client (the
    // work is done) — but it is counted: after a crash this id would
    // re-solve, so the exactly-once cache now leans on the in-memory
    // map alone.
    if let Err(e) =
        inner.journal_append(&JournalRecord::Completed { response: response.clone() })
    {
        inner.sink.count(Counter::ServeJournalFail, 1);
        obs.failed_journal.fetch_add(1, Ordering::Relaxed);
        obs.recorder
            .record("journal_fail", Some(&response.id), format!("completion append: {e}"));
        eprintln!("usep-serve: journal append failed for '{}': {e}", response.id);
    }
    inner
        .completed
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .entry(response.id.clone())
        .or_insert_with(|| response.clone());
    // Release the slot and leave the inflight gauge *before* the reply
    // goes out: once a client holds its response, a scrape must satisfy
    // accepted == completed + failed + inflight — replying first opened
    // a window where the finished job still looked inflight.
    drop(job.ticket); // release queue slot + ledger bytes
    obs.inflight.fetch_sub(1, Ordering::Relaxed);
    if let Some(reply) = &job.reply {
        let _ = reply.send(response);
    }

    let done = inner.completions.fetch_add(1, Ordering::SeqCst) + 1;
    if inner.cfg.max_requests.is_some_and(|max| done >= max) {
        inner.initiate_shutdown();
    }
}

fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The solve itself: budget capping, then the degradation chain behind
/// the fence.
fn solve_request(inner: &Inner, request: &SolveRequest) -> SolveResponse {
    let cfg = &inner.cfg;
    let seq = inner.solves_started.fetch_add(1, Ordering::SeqCst) + 1;
    let limits = SolveLimits {
        default_algorithm: cfg.default_algorithm,
        max_timeout_ms: cfg.max_timeout_ms,
        max_mem_budget_bytes: cfg.max_mem_budget_bytes,
        chaos_trip: cfg.chaos_trip,
        chaos_panic_now: cfg.chaos_panic_every.is_some_and(|n| n > 0 && seq.is_multiple_of(n)),
        chaos_delay_ms: cfg.chaos_delay_ms,
    };
    solve_with_retry_observed(request, &limits, &*inner.sink, Some(&inner.obs))
}

/// Server-side limits and fault-injection switches for one solve,
/// decoupled from the socket/journal machinery so the serve path can
/// be driven in-process (differential tests, determinism audits).
#[derive(Clone, Debug)]
pub struct SolveLimits {
    /// Algorithm for requests that name none.
    pub default_algorithm: Algorithm,
    /// Hard cap on the request's wall-clock budget (and the budget for
    /// requests that ask for none).
    pub max_timeout_ms: u64,
    /// Cap on the request's memory ceiling; `None` leaves requests
    /// without one uncapped.
    pub max_mem_budget_bytes: Option<usize>,
    /// Fault injection: arm every tier's guard with a chaos trip
    /// (memory-ceiling reason) at this checkpoint count.
    pub chaos_trip: Option<u64>,
    /// Fault injection: panic inside the fence on this solve. The
    /// server derives this from its solve sequence number and
    /// `chaos_panic_every`.
    pub chaos_panic_now: bool,
    /// Fault injection: sleep this long inside the fence before the
    /// chain starts (the solve's deadline starts after the sleep).
    pub chaos_delay_ms: u64,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        let cfg = ServeConfig::default();
        SolveLimits {
            default_algorithm: cfg.default_algorithm,
            max_timeout_ms: cfg.max_timeout_ms,
            max_mem_budget_bytes: cfg.max_mem_budget_bytes,
            chaos_trip: None,
            chaos_panic_now: false,
            chaos_delay_ms: 0,
        }
    }
}

/// Runs one request through the serve solve path — budget capping, the
/// unwind fence around the [`GuardedSolver`] degradation chain, and the
/// infeasible-planning quarantine — without a server, socket, or
/// journal.
///
/// This is exactly the path a live server executes per job; the server
/// calls it through `solve_request`. Exposed so the `usep-oracle`
/// differential engine and the cross-thread determinism tests can audit
/// the serve path in-process.
pub fn solve_with_retry(
    request: &SolveRequest,
    limits: &SolveLimits,
    probe: &dyn Probe,
) -> SolveResponse {
    solve_with_retry_observed(request, limits, probe, None)
}

/// [`solve_with_retry`] with the serve observability plane attached:
/// failure cells tick, the degradation trail lands in the flight
/// recorder, and every span the solvers open under this call is stamped
/// with the request id via a [`RequestProbe`].
pub fn solve_with_retry_observed(
    request: &SolveRequest,
    limits: &SolveLimits,
    probe: &dyn Probe,
    obs: Option<&ServeMetrics>,
) -> SolveResponse {
    let algorithm = request
        .algorithm
        .as_deref()
        .and_then(Algorithm::parse)
        .unwrap_or(limits.default_algorithm);
    let timeout_ms = request.timeout_ms.unwrap_or(limits.max_timeout_ms).min(limits.max_timeout_ms);
    let mut budget = SolveBudget::unlimited().with_deadline(Duration::from_millis(timeout_ms));
    let requested = request.mem_budget_mb.map(|mb| (mb as usize).saturating_mul(1 << 20));
    let ceiling = match (requested, limits.max_mem_budget_bytes) {
        (Some(r), Some(cap)) => Some(r.min(cap)),
        (r, cap) => r.or(cap),
    };
    if let Some(bytes) = ceiling {
        budget = budget.with_memory_ceiling(bytes);
    }
    if let Some(at) = limits.chaos_trip {
        budget = budget.with_chaos_trip(at, TruncationReason::MemoryCeiling);
    }

    // The fence: a panic anywhere in the solver stack, which runs on
    // this worker thread, becomes a typed response instead of a dead
    // server. Every span the chain opens carries the request id.
    let scoped = RequestProbe::new(probe, RequestCtx::new(&request.id));
    let started = Instant::now();
    let solved = catch_unwind(AssertUnwindSafe(|| {
        if limits.chaos_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(limits.chaos_delay_ms));
        }
        if limits.chaos_panic_now {
            panic!("chaos: injected panic");
        }
        GuardedSolver::new(algorithm, budget).solve_with_probe(&request.instance, &scoped)
    }));
    let timings = Some(PhaseTimings {
        solve_ms: started.elapsed().as_secs_f64() * 1e3,
        ..PhaseTimings::default()
    });
    let failed = |panic: String| SolveResponse {
        timings,
        ..SolveResponse::bare(request.id.clone(), Status::Failed { panic })
    };

    let report = match solved {
        Ok(report) => report,
        Err(payload) => {
            probe.count(Counter::ServePanic, 1);
            let panic_msg = describe_panic(payload);
            if let Some(obs) = obs {
                obs.failed_panic.fetch_add(1, Ordering::Relaxed);
                obs.recorder.record(
                    "panic",
                    Some(&request.id),
                    format!("{}: {panic_msg}", algorithm.name()),
                );
                // the black box survives into the logs at the moment of
                // the crash, not just at shutdown
                eprintln!(
                    "usep-serve: contained panic in '{}': {}",
                    request.id,
                    obs.recorder.dump_json()
                );
            }
            return failed(panic_msg);
        }
    };

    // A solver that returns an infeasible planning is a bug, not a
    // client error; quarantine it like a panic.
    if let Err(e) = report.planning.validate(&request.instance) {
        probe.count(Counter::ServePanic, 1);
        if let Some(obs) = obs {
            obs.failed_infeasible.fetch_add(1, Ordering::Relaxed);
            obs.recorder.record(
                "infeasible",
                Some(&request.id),
                format!("{}: {e}", report.executed.name()),
            );
        }
        return failed(format!("solver produced infeasible planning: {e}"));
    }

    if let Some(obs) = obs {
        for tier in &report.fallbacks {
            obs.recorder.record(
                "retry",
                Some(&request.id),
                format!("memory_ceiling at {}; one tier down", tier.name()),
            );
        }
        if let Some(reason) = report.outcome.reason() {
            obs.recorder.record(
                "guard_trip",
                Some(&request.id),
                format!("{} at {}", reason.name(), report.executed.name()),
            );
        }
    }
    let status = match report.outcome.reason() {
        None => Status::Complete,
        Some(reason) => Status::Truncated { reason: reason.name().to_string() },
    };
    SolveResponse {
        id: request.id.clone(),
        status,
        omega: report.planning.omega(&request.instance),
        assignments: report.planning.num_assignments() as u64,
        executed: Some(report.executed.name().to_string()),
        retries: report.fallbacks.len() as u64,
        planning: Some(report.planning),
        timings,
        shard: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_reaches_the_socket_in_one_write_ending_in_a_newline() {
        let response = SolveResponse::bare("r1", Status::Rejected { error: "no".to_string() });
        let mut out = Recorder::default();
        write_response(&mut out, &response).unwrap();
        let line = serde_json::to_string(&response).unwrap() + "\n";
        assert_eq!(out.writes, vec![line.into_bytes()]);

        // mutate and control replies take the same path
        let mut out = Recorder::default();
        write_line(&mut out, r#"{"ok":true}"#.to_string()).unwrap();
        assert_eq!(out.writes, vec![b"{\"ok\":true}\n".to_vec()]);
    }

    #[test]
    fn accepted_connections_set_tcp_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        prepare_connection(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(Duration::from_millis(100)));
    }
}
