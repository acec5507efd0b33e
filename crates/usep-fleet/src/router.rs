//! The fleet's front door: a JSON-lines TCP listener speaking the
//! exact `usep-serve` protocol, forwarding each request to a shard
//! picked by the partition table and failing over when shards die.
//!
//! The robustness contract, in routing order:
//!
//! 1. **Dedup first.** A request id the fleet has already answered is
//!    replayed from the router's completion cache without touching a
//!    shard — the fleet-level mirror of the journal's duplicate replay.
//! 2. **Partition.** The primary shard is the request's city owner (or
//!    the rendezvous winner for unlabeled requests); the rest of the
//!    preference order is the deterministic failover chain.
//! 3. **Failover.** A connection error (shard died mid-solve), a
//!    forward timeout, or an `Overloaded` shed moves the request to the
//!    next shard in the preference order after a capped equal-jitter
//!    backoff ([`crate::backoff`], seeded from the request id so
//!    retry schedules are deterministic per request). Known-`Down`
//!    shards are skipped on the first sweep and retried on the second —
//!    the supervisor may have resurrected them by then.
//! 4. **First completion wins.** Whatever terminal response comes back
//!    first is inserted into the completion cache; concurrent
//!    duplicates and late retries all answer with the cached winner, so
//!    a client can fire the same id at the fleet twice and never see
//!    two different answers — exactly-once at the fleet boundary, even
//!    across failover.
//! 5. **Shed loudly.** When every shard in every sweep is exhausted the
//!    router answers a typed `Overloaded` itself; no request ever dies
//!    silently inside the fleet.

use crate::backoff::{seed_from_id, RetryPolicy};
use crate::health::{Health, ShardState};
use crate::metrics::FleetMetrics;
use crate::partition::PartitionTable;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use usep_serve::{send_request, SolveRequest, SolveResponse, Status};
use usep_trace::{Counter, Probe, TraceSink};

/// Everything the router needs to run. Shards are index-aligned with
/// the partition table's shard list.
pub struct RouterConfig {
    /// Listen address for the fleet's solve socket (`0` port works).
    pub addr: String,
    /// The partition table (city map + rendezvous fallback).
    pub table: PartitionTable,
    /// Shared per-shard state, index-aligned with `table.shards()`.
    pub shards: Vec<Arc<ShardState>>,
    /// Backoff schedule between failover attempts.
    pub retry: RetryPolicy,
    /// Per-forward client timeout (connect + wait for the response
    /// line). Shard solves are bounded server-side, so this only has to
    /// cover the shard's own `max_timeout_ms` plus queueing.
    pub forward_timeout: Duration,
    /// Sweeps over the preference order before shedding. The first
    /// sweep skips known-`Down` shards; later sweeps try everything
    /// (the supervisor may have restarted a shard in the meantime).
    pub sweeps: u32,
    /// Fleet trace counters.
    pub sink: Arc<TraceSink>,
    /// Router-level metric cells (requests/replayed/rejected/shed).
    pub metrics: Arc<FleetMetrics>,
}

struct Inner {
    table: PartitionTable,
    shards: Vec<Arc<ShardState>>,
    retry: RetryPolicy,
    forward_timeout: Duration,
    sweeps: u32,
    sink: Arc<TraceSink>,
    metrics: Arc<FleetMetrics>,
    /// Fleet-level completion cache: request id → the first terminal
    /// response any shard produced for it.
    completed: Mutex<HashMap<String, SolveResponse>>,
}

/// A running router.
pub struct RouterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound solve-socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. In-flight connections finish
    /// on their own detached threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Router entry point.
pub struct Router;

impl Router {
    /// Binds the router's solve socket and starts accepting.
    pub fn start(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
        assert_eq!(
            cfg.table.len(),
            cfg.shards.len(),
            "partition table and shard states must be index-aligned"
        );
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            table: cfg.table,
            shards: cfg.shards,
            retry: cfg.retry,
            forward_timeout: cfg.forward_timeout,
            sweeps: cfg.sweeps.max(1),
            sink: cfg.sink,
            metrics: cfg.metrics,
            completed: Mutex::new(HashMap::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("usep-fleet-router".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_accept.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let inner = Arc::clone(&inner);
                    let _ = std::thread::Builder::new()
                        .name("usep-fleet-conn".to_string())
                        .spawn(move || handle_connection(&inner, stream));
                }
            })?;
        Ok(RouterHandle { addr, stop, accept_thread: Some(accept_thread) })
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    // replies leave as soon as they are written, not after the client's
    // delayed ACK of the previous segment
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(inner, line.trim_end());
        let Ok(mut json) = serde_json::to_string(&response) else { return };
        // the line and its newline in one send
        json.push('\n');
        if writer.write_all(json.as_bytes()).and_then(|()| writer.flush()).is_err() {
            return;
        }
    }
}

fn handle_line(inner: &Arc<Inner>, line: &str) -> SolveResponse {
    // every line counts into requests_total, so the reconciliation
    // identity (requests = replayed + rejected + shed + Σ completed +
    // inflight) holds over *everything* the router read
    inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
    match serde_json::from_str::<SolveRequest>(line) {
        Ok(request) => route(inner, &request),
        Err(e) => {
            // same convention as usep-serve: unparseable lines answer a
            // typed rejection with an empty id
            inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            SolveResponse::bare("", Status::Rejected { error: format!("fleet router: {e}") })
        }
    }
}

/// Routes one parsed request: dedup, then the failover sweeps.
fn route(inner: &Arc<Inner>, request: &SolveRequest) -> SolveResponse {
    // fleet-level duplicate replay, mirroring the journal's
    if let Some(hit) = inner.completed.lock().unwrap_or_else(|p| p.into_inner()).get(&request.id)
    {
        inner.metrics.replayed.fetch_add(1, Ordering::Relaxed);
        inner.sink.count(Counter::FleetReplay, 1);
        return hit.clone();
    }

    inner.sink.count(Counter::FleetRoute, 1);
    let pref = inner.table.preference(request.city.as_deref(), &request.id);
    let seed = seed_from_id(&request.id);
    let mut first_forward = true;
    let mut failures: u32 = 0;
    for sweep in 0..inner.sweeps {
        for &idx in &pref {
            let shard = &inner.shards[idx];
            // skip known-dead shards on the first sweep only; by the
            // second the supervisor may have resumed them, and trying
            // is the only way to find out
            if sweep == 0 && inner.sweeps > 1 && shard.health() == Health::Down {
                continue;
            }
            if first_forward {
                shard.routed.fetch_add(1, Ordering::Relaxed);
                first_forward = false;
            } else {
                inner.sink.count(Counter::FleetFailover, 1);
                std::thread::sleep(inner.retry.delay(failures, seed));
            }
            shard.inflight.fetch_add(1, Ordering::Relaxed);
            let result = send_request(shard.addr(), request, inner.forward_timeout);
            shard.inflight.fetch_sub(1, Ordering::Relaxed);
            match result {
                Ok(response) => {
                    shard.mark_alive();
                    if matches!(response.status, Status::Overloaded { .. }) {
                        // the shard is alive but full; move along
                        shard.failovers.fetch_add(1, Ordering::Relaxed);
                        failures = failures.saturating_add(1);
                        continue;
                    }
                    shard.completed.fetch_add(1, Ordering::Relaxed);
                    return complete(inner, &request.id, response);
                }
                Err(_) => {
                    // connection refused/reset or timed out: the shard
                    // is gone (or wedged); the router has first-hand
                    // evidence, no probe quorum needed
                    shard.mark_down();
                    shard.failovers.fetch_add(1, Ordering::Relaxed);
                    failures = failures.saturating_add(1);
                }
            }
        }
    }

    inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
    inner.sink.count(Counter::FleetShed, 1);
    let queue_depth = inner
        .shards
        .iter()
        .map(|s| s.queue_depth.load(Ordering::Relaxed) as usize)
        .max()
        .unwrap_or(0);
    SolveResponse::bare(
        request.id.clone(),
        Status::Overloaded { queue_depth, reserved_bytes: 0 },
    )
}

/// First-completion-wins insert: whichever terminal response reached
/// the cache first is the fleet's answer for this id, now and forever.
/// Concurrent duplicates that both made it to a shard converge on the
/// same winner here.
fn complete(inner: &Arc<Inner>, id: &str, response: SolveResponse) -> SolveResponse {
    let mut cache = inner.completed.lock().unwrap_or_else(|p| p.into_inner());
    cache.entry(id.to_string()).or_insert(response).clone()
}
