//! Structured instrumentation for the USEP solvers.
//!
//! The paper's complexity arguments (Sections 4–6) are stated in terms
//! of a few discrete quantities — lazy-heap traffic, candidate
//! refreshes, DP cells visited, pseudo-event matrix size. This crate
//! gives those quantities names and a way to observe them without
//! perturbing the algorithms:
//!
//! * [`Probe`] — the interface solvers report through. Every method has
//!   a no-op default body, and call sites guard hot loops with
//!   [`Probe::enabled`], so an uninstrumented run ([`NoopProbe`])
//!   compiles down to nothing.
//! * [`Counter`] — the fixed registry of algorithm counters.
//! * [`TraceSink`] — the collecting implementation: atomic counters,
//!   monotonic phase spans, log-scale value histograms with
//!   p50/p95/p99 summaries, and an optional JSON-lines writer that
//!   emits one event per line plus a final summary record.
//!
//! The crate is dependency-free on purpose: it sits underneath
//! `usep-algos`, and serialization of counter snapshots into result
//! tables is owned by `usep-metrics`.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

mod hist;
pub mod json;

pub use hist::{Histogram, HistogramSummary};

/// The fixed registry of algorithm counters.
///
/// Each variant maps one-to-one onto a quantity in the paper's cost
/// model; the snake_case name (see [`Counter::name`]) is the stable
/// identifier used in traces and result tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Candidate pushed onto the ratio-greedy lazy heap.
    HeapPush,
    /// Candidate popped from the lazy heap (stale or live).
    HeapPop,
    /// Popped candidate discarded by generation-stamp lazy deletion.
    HeapPopStale,
    /// Event-side candidate list recomputed after an assignment.
    CandidateRefreshEvent,
    /// User-side candidate list recomputed after an assignment.
    CandidateRefreshUser,
    /// Dynamic-programming cell evaluated (DeDP/DeDPO inner loop).
    DpCellVisit,
    /// Dynamic-programming cell skipped by a dominance/feasibility prune.
    DpCellPruned,
    /// Bytes allocated for the literal pseudo-event utility matrix.
    PseudoMatrixBytes,
    /// Assignment added by the +RG augmentation pass.
    AugmentSwap,
    /// Candidate rejected because the event was at capacity.
    CapacityReject,
    /// Candidate rejected because the user's budget was exceeded.
    BudgetReject,
    /// Guard tripped on the wall-clock deadline (solve truncated).
    GuardDeadlineTrip,
    /// Guard tripped on the memory ceiling (solve truncated).
    GuardMemoryTrip,
    /// Guard tripped by cooperative cancellation (solve truncated).
    GuardCancelTrip,
    /// GuardedSolver fell back one step along DeDP → DeDPO → DeGreedy+RG
    /// after a memory trip — in `usep solve` and in every served
    /// request, where it sources `usep_serve_retried_total`.
    GuardFallback,
    /// Request admitted into the serve queue (journaled as accepted).
    ServeAccept,
    /// Request shed at admission (queue full or memory ledger refused).
    ServeShed,
    /// Solve panicked and was contained by the request's unwind fence.
    ServePanic,
    /// Accepted-but-incomplete request re-enqueued from the journal at
    /// server startup (`serve --resume`).
    ServeResume,
    /// Duplicate request id answered from the journaled completion
    /// cache without re-solving.
    ServeReplay,
    /// One planning audited by the independent constraint oracle
    /// (`usep-oracle`).
    OracleCheck,
    /// Constraint or cross-check violation reported by the oracle.
    OracleViolation,
    /// One shrink attempt executed by the oracle's failure minimizer.
    OracleMinimizeStep,
    /// One fork-join parallel section executed by `usep-par`. Counted
    /// once per section (not per worker or chunk), so snapshots stay
    /// identical across thread counts.
    ParSection,
    /// Request routed to a shard by the fleet router (first attempt).
    FleetRoute,
    /// Request moved to a fallback shard after its assigned shard
    /// failed (connection error, timeout, or an Overloaded shed).
    FleetFailover,
    /// Dead shard process restarted (with `--resume`) by the fleet
    /// supervisor.
    FleetRestart,
    /// Request refused by the router because no shard could take it
    /// (every preference exhausted or failover budget spent).
    FleetShed,
    /// Duplicate request id answered from the router's fleet-level
    /// completion cache without touching a shard.
    FleetReplay,
    /// Corrupt journal record detected by its CRC frame and skipped
    /// (quarantined) during replay instead of aborting the resume.
    JournalQuarantine,
    /// Journal snapshot+compaction executed (atomic tmp-file rename of
    /// the replayed state over the append-only history).
    JournalCompaction,
    /// Request shed with a typed `Failed` response because a journal
    /// append (accept or completion record) returned an I/O error.
    ServeJournalFail,
    /// One disk or network fault injected by the `usep-chaos` plan.
    ChaosFault,
    /// One seeded chaos scenario executed end to end.
    ChaosScenario,
    /// One typed mutation applied to a delta-solve engine.
    DeltaMutation,
    /// One mutation resolved by bounded repair (no full resolve).
    DeltaRepair,
    /// One drift-triggered fallback to a full cold resolve.
    DeltaFallback,
    /// One assignment evicted or unassigned during a delta repair.
    DeltaEvict,
    /// One `mutate`-family control verb handled by `usep-serve`.
    ServeMutate,
}

impl Counter {
    /// Every counter, in registry order.
    pub const ALL: [Counter; 39] = [
        Counter::HeapPush,
        Counter::HeapPop,
        Counter::HeapPopStale,
        Counter::CandidateRefreshEvent,
        Counter::CandidateRefreshUser,
        Counter::DpCellVisit,
        Counter::DpCellPruned,
        Counter::PseudoMatrixBytes,
        Counter::AugmentSwap,
        Counter::CapacityReject,
        Counter::BudgetReject,
        Counter::GuardDeadlineTrip,
        Counter::GuardMemoryTrip,
        Counter::GuardCancelTrip,
        Counter::GuardFallback,
        Counter::ServeAccept,
        Counter::ServeShed,
        Counter::ServePanic,
        Counter::ServeResume,
        Counter::ServeReplay,
        Counter::OracleCheck,
        Counter::OracleViolation,
        Counter::OracleMinimizeStep,
        Counter::ParSection,
        Counter::FleetRoute,
        Counter::FleetFailover,
        Counter::FleetRestart,
        Counter::FleetShed,
        Counter::FleetReplay,
        Counter::JournalQuarantine,
        Counter::JournalCompaction,
        Counter::ServeJournalFail,
        Counter::ChaosFault,
        Counter::ChaosScenario,
        Counter::DeltaMutation,
        Counter::DeltaRepair,
        Counter::DeltaFallback,
        Counter::DeltaEvict,
        Counter::ServeMutate,
    ];

    /// The stable snake_case identifier used in traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            Counter::HeapPush => "heap_push",
            Counter::HeapPop => "heap_pop",
            Counter::HeapPopStale => "heap_pop_stale",
            Counter::CandidateRefreshEvent => "candidate_refresh_event",
            Counter::CandidateRefreshUser => "candidate_refresh_user",
            Counter::DpCellVisit => "dp_cell_visit",
            Counter::DpCellPruned => "dp_cell_pruned",
            Counter::PseudoMatrixBytes => "pseudo_matrix_bytes",
            Counter::AugmentSwap => "augment_swap",
            Counter::CapacityReject => "capacity_reject",
            Counter::BudgetReject => "budget_reject",
            Counter::GuardDeadlineTrip => "guard_deadline_trip",
            Counter::GuardMemoryTrip => "guard_memory_trip",
            Counter::GuardCancelTrip => "guard_cancel_trip",
            Counter::GuardFallback => "guard_fallback",
            Counter::ServeAccept => "serve_accept",
            Counter::ServeShed => "serve_shed",
            Counter::ServePanic => "serve_panic",
            Counter::ServeResume => "serve_resume",
            Counter::ServeReplay => "serve_replay",
            Counter::OracleCheck => "oracle_check",
            Counter::OracleViolation => "oracle_violation",
            Counter::OracleMinimizeStep => "oracle_minimize_step",
            Counter::ParSection => "par_section",
            Counter::FleetRoute => "fleet_route",
            Counter::FleetFailover => "fleet_failover",
            Counter::FleetRestart => "fleet_restart",
            Counter::FleetShed => "fleet_shed",
            Counter::FleetReplay => "fleet_replay",
            Counter::JournalQuarantine => "journal_quarantined",
            Counter::JournalCompaction => "journal_compacted",
            Counter::ServeJournalFail => "serve_journal_fail",
            Counter::ChaosFault => "chaos_fault_injected",
            Counter::ChaosScenario => "chaos_scenario",
            Counter::DeltaMutation => "delta_mutation",
            Counter::DeltaRepair => "delta_repair",
            Counter::DeltaFallback => "delta_fallback",
            Counter::DeltaEvict => "delta_evict",
            Counter::ServeMutate => "serve_mutate",
        }
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The interface solvers report through.
///
/// All methods default to no-ops so `&NOOP` costs one virtual call per
/// site at most; call sites inside per-element loops should guard with
/// [`Probe::enabled`] first so the disabled path stays branch-only.
pub trait Probe: Sync {
    /// `true` when this probe records anything — hot loops may skip
    /// instrumentation work entirely when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to `counter`.
    fn count(&self, counter: Counter, delta: u64) {
        let _ = (counter, delta);
    }

    /// Opens a named phase span. Spans nest LIFO within a solve.
    fn span_enter(&self, name: &'static str) {
        let _ = name;
    }

    /// Closes the innermost span named `name`.
    fn span_exit(&self, name: &'static str) {
        let _ = name;
    }

    /// Records one observation into the named log-scale histogram.
    fn record(&self, histogram: &'static str, value: f64) {
        let _ = (histogram, value);
    }

    /// Opens a span annotated with a request context. Defaults to the
    /// unscoped [`Probe::span_enter`], so sinks that don't understand
    /// request ids still aggregate the span normally.
    fn span_enter_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        let _ = ctx;
        self.span_enter(name);
    }

    /// Closes a span opened by [`Probe::span_enter_scoped`].
    fn span_exit_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        let _ = ctx;
        self.span_exit(name);
    }
}

/// Request-scoped tracing context, propagated from serve admission
/// through the degradation chain into every span the solve emits.
///
/// The context is deliberately tiny and cheap to clone: the id is a
/// shared `Arc<str>`.
#[derive(Clone, Debug)]
pub struct RequestCtx {
    /// Client-chosen request id, unique per admission.
    pub request_id: std::sync::Arc<str>,
}

impl RequestCtx {
    /// A context with the given id.
    pub fn new(request_id: &str) -> RequestCtx {
        RequestCtx { request_id: std::sync::Arc::from(request_id) }
    }
}

/// A [`Probe`] adapter that stamps every span from an inner solve with
/// one request's context.
///
/// Solver code takes `&dyn Probe` and knows nothing about requests;
/// the serve layer wraps its shared [`TraceSink`] in a `RequestProbe`
/// per solve, so every JSONL span event produced under it carries the
/// request id without any solver-side plumbing.
pub struct RequestProbe<'a> {
    parent: &'a dyn Probe,
    ctx: RequestCtx,
}

impl<'a> RequestProbe<'a> {
    /// Wraps `parent` so spans carry `ctx`.
    pub fn new(parent: &'a dyn Probe, ctx: RequestCtx) -> RequestProbe<'a> {
        RequestProbe { parent, ctx }
    }

    /// The wrapped context.
    pub fn ctx(&self) -> &RequestCtx {
        &self.ctx
    }
}

impl Probe for RequestProbe<'_> {
    fn enabled(&self) -> bool {
        self.parent.enabled()
    }

    fn count(&self, counter: Counter, delta: u64) {
        self.parent.count(counter, delta);
    }

    fn span_enter(&self, name: &'static str) {
        self.parent.span_enter_scoped(name, Some(&self.ctx));
    }

    fn span_exit(&self, name: &'static str) {
        self.parent.span_exit_scoped(name, Some(&self.ctx));
    }

    fn span_enter_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        self.parent.span_enter_scoped(name, ctx.or(Some(&self.ctx)));
    }

    fn span_exit_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        self.parent.span_exit_scoped(name, ctx.or(Some(&self.ctx)));
    }

    fn record(&self, histogram: &'static str, value: f64) {
        self.parent.record(histogram, value);
    }
}

/// The probe that records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// Batched counter accumulation for hot scans.
///
/// A scan counts into plain integers and flushes once into the probe
/// when it finishes: RatioGreedy's refresh scans count their rejects
/// this way, one integer add each instead of a dynamic [`Probe::count`]
/// call. A parallel section can give each worker its own and flush it
/// when the worker drains. [`TraceSink`]'s counters are atomics, and a
/// hot scan incrementing a shared cache line from eight cores
/// serializes on it; flushing per worker leaves the shared atomics one
/// contended write per worker per section instead of one per element.
#[derive(Clone, Debug)]
pub struct LocalCounters {
    deltas: [u64; Counter::ALL.len()],
}

// hand-written: the derive needs `[u64; N]: Default`, which the stdlib
// only provides for N <= 32 and the counter registry outgrew that
impl Default for LocalCounters {
    fn default() -> LocalCounters {
        LocalCounters { deltas: [0; Counter::ALL.len()] }
    }
}

impl LocalCounters {
    /// A zeroed accumulator.
    pub fn new() -> LocalCounters {
        LocalCounters::default()
    }

    /// Adds `delta` to `counter` locally (no synchronization).
    pub fn count(&mut self, counter: Counter, delta: u64) {
        self.deltas[counter as usize] += delta;
    }

    /// Current local value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.deltas[counter as usize]
    }

    /// Flushes every non-zero delta into `probe` and zeroes the
    /// accumulator (so a retained worker state can be flushed again
    /// without double counting).
    pub fn flush_into(&mut self, probe: &dyn Probe) {
        for &c in Counter::ALL.iter() {
            let d = self.deltas[c as usize];
            if d > 0 {
                probe.count(c, d);
                self.deltas[c as usize] = 0;
            }
        }
    }
}

/// A shared no-op probe instance for default call paths.
pub static NOOP: NoopProbe = NoopProbe;

/// Convenience guard: runs a span over a closure.
pub fn with_span<T>(probe: &dyn Probe, name: &'static str, f: impl FnOnce() -> T) -> T {
    probe.span_enter(name);
    let out = f();
    probe.span_exit(name);
    out
}

/// Aggregate of one span name across a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTotal {
    /// The span name.
    pub name: &'static str,
    /// Number of times the span was entered and exited.
    pub count: u64,
    /// Total nanoseconds across all completed instances.
    pub total_ns: u64,
}

struct SinkState {
    /// Open spans, innermost last: (name, start, seq of the enter event).
    open: Vec<(&'static str, Instant)>,
    totals: Vec<SpanTotal>,
    histograms: HashMap<&'static str, Histogram>,
    writer: Option<Box<dyn Write + Send>>,
}

/// The collecting [`Probe`]: atomic counters, phase spans, histograms,
/// and an optional JSON-lines emitter.
///
/// Counter updates are lock-free; spans, histograms and trace output
/// share one mutex, which solver phases touch rarely (per phase / per
/// observation, never per heap operation).
pub struct TraceSink {
    counters: [AtomicU64; Counter::ALL.len()],
    seq: AtomicU64,
    epoch: Instant,
    finished: std::sync::atomic::AtomicBool,
    state: Mutex<SinkState>,
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A sink that aggregates in memory without writing a trace.
    pub fn new() -> TraceSink {
        TraceSink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            finished: std::sync::atomic::AtomicBool::new(false),
            state: Mutex::new(SinkState {
                open: Vec::new(),
                totals: Vec::new(),
                histograms: HashMap::new(),
                writer: None,
            }),
        }
    }

    /// A sink that additionally emits JSON-lines events to `writer`.
    pub fn with_writer(writer: Box<dyn Write + Send>) -> TraceSink {
        let sink = TraceSink::new();
        sink.lock().writer = Some(writer);
        sink
    }

    /// A sink writing its trace to a (buffered) file at `path`.
    pub fn to_file(path: &std::path::Path) -> io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::with_writer(Box::new(io::BufWriter::new(file))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all counters in registry order.
    pub fn counters(&self) -> Vec<(Counter, u64)> {
        Counter::ALL.iter().map(|&c| (c, self.counter(c))).collect()
    }

    /// Completed-span aggregates, in first-seen order.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        self.lock().totals.clone()
    }

    /// Percentile summary of a named histogram, `None` if it has no
    /// samples (or was never recorded).
    pub fn histogram_summary(&self, name: &str) -> Option<HistogramSummary> {
        self.lock().histograms.get(name).and_then(Histogram::summary)
    }

    /// Snapshot clone of a named histogram, for bucket-level exposition
    /// (the metrics registry re-exports these as cumulative buckets).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Names of all recorded histograms, sorted.
    pub fn histogram_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.lock().histograms.keys().map(|s| s.to_string()).collect();
        names.sort();
        names
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn emit(state: &mut SinkState, line: &str) {
        if let Some(w) = state.writer.as_mut() {
            // Trace output is best-effort; a full disk must not take the
            // solver down with it.
            let _ = writeln!(w, "{line}");
        }
    }

    /// Writes the final summary record (counters, span totals, histogram
    /// summaries) and flushes the writer. The summary is written at most
    /// once — later calls (and the drop-path safety net) only flush, so
    /// a trace never carries two summary records.
    pub fn finish(&self) -> io::Result<()> {
        if self.finished.swap(true, Ordering::SeqCst) {
            let mut state = self.lock();
            if let Some(w) = state.writer.as_mut() {
                w.flush()?;
            }
            return Ok(());
        }
        let counters = self.counters();
        let mut state = self.lock();

        let mut counter_fields: Vec<(String, json::Value)> = Vec::new();
        for (c, v) in counters {
            counter_fields.push((c.name().to_string(), json::Value::U64(v)));
        }

        let mut span_items: Vec<json::Value> = Vec::new();
        for t in &state.totals {
            span_items.push(json::Value::Map(vec![
                ("name".to_string(), json::Value::Str(t.name.to_string())),
                ("count".to_string(), json::Value::U64(t.count)),
                ("total_ns".to_string(), json::Value::U64(t.total_ns)),
            ]));
        }

        let mut hist_names: Vec<&&'static str> = state.histograms.keys().collect();
        hist_names.sort();
        let mut hist_fields: Vec<(String, json::Value)> = Vec::new();
        for name in hist_names.iter().map(|n| **n).collect::<Vec<_>>() {
            if let Some(s) = state.histograms[name].summary() {
                hist_fields.push((
                    name.to_string(),
                    json::Value::Map(vec![
                        ("count".to_string(), json::Value::U64(s.count)),
                        ("min".to_string(), json::Value::F64(s.min)),
                        ("max".to_string(), json::Value::F64(s.max)),
                        ("mean".to_string(), json::Value::F64(s.mean)),
                        ("p50".to_string(), json::Value::F64(s.p50)),
                        ("p95".to_string(), json::Value::F64(s.p95)),
                        ("p99".to_string(), json::Value::F64(s.p99)),
                    ]),
                ));
            }
        }

        let record = json::Value::Map(vec![
            ("type".to_string(), json::Value::Str("summary".to_string())),
            ("seq".to_string(), json::Value::U64(self.seq.load(Ordering::Relaxed))),
            ("counters".to_string(), json::Value::Map(counter_fields)),
            ("spans".to_string(), json::Value::Seq(span_items)),
            ("histograms".to_string(), json::Value::Map(hist_fields)),
        ]);
        Self::emit(&mut state, &record.render());
        if let Some(w) = state.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    fn enter_impl(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        let seq = self.next_seq();
        let now = Instant::now();
        let mut state = self.lock();
        state.open.push((name, now));
        let depth = state.open.len();
        if state.writer.is_some() {
            let mut fields = vec![
                ("type".to_string(), json::Value::Str("span_enter".to_string())),
                ("seq".to_string(), json::Value::U64(seq)),
                ("name".to_string(), json::Value::Str(name.to_string())),
                ("depth".to_string(), json::Value::U64(depth as u64)),
                (
                    "t_ns".to_string(),
                    json::Value::U64(now.duration_since(self.epoch).as_nanos() as u64),
                ),
            ];
            if let Some(ctx) = ctx {
                fields.push((
                    "request_id".to_string(),
                    json::Value::Str(ctx.request_id.to_string()),
                ));
            }
            Self::emit(&mut state, &json::Value::Map(fields).render());
        }
    }

    fn exit_impl(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        let seq = self.next_seq();
        let now = Instant::now();
        let mut state = self.lock();
        // Innermost matching span; tolerates (and closes past) mismatched
        // exits rather than panicking inside an algorithm.
        let Some(idx) = state.open.iter().rposition(|(n, _)| *n == name) else {
            return;
        };
        let (_, start) = state.open.remove(idx);
        let dur_ns = now.duration_since(start).as_nanos() as u64;
        match state.totals.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur_ns;
            }
            None => state.totals.push(SpanTotal { name, count: 1, total_ns: dur_ns }),
        }
        if state.writer.is_some() {
            let mut fields = vec![
                ("type".to_string(), json::Value::Str("span_exit".to_string())),
                ("seq".to_string(), json::Value::U64(seq)),
                ("name".to_string(), json::Value::Str(name.to_string())),
                ("dur_ns".to_string(), json::Value::U64(dur_ns)),
                (
                    "t_ns".to_string(),
                    json::Value::U64(now.duration_since(self.epoch).as_nanos() as u64),
                ),
            ];
            if let Some(ctx) = ctx {
                fields.push((
                    "request_id".to_string(),
                    json::Value::Str(ctx.request_id.to_string()),
                ));
            }
            Self::emit(&mut state, &json::Value::Map(fields).render());
        }
    }
}

impl Drop for TraceSink {
    /// Drop-path safety net: a sink dropped without an explicit
    /// [`TraceSink::finish`] — early return, panic unwind — still gets
    /// its summary record and flush, so readers never see a trace that
    /// ends mid-stream on a buffered half-written tail.
    fn drop(&mut self) {
        if !self.finished.load(Ordering::SeqCst) {
            let _ = self.finish();
        }
    }
}

impl Probe for TraceSink {
    fn enabled(&self) -> bool {
        true
    }

    fn count(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn span_enter(&self, name: &'static str) {
        self.enter_impl(name, None);
    }

    fn span_exit(&self, name: &'static str) {
        self.exit_impl(name, None);
    }

    fn span_enter_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        self.enter_impl(name, ctx);
    }

    fn span_exit_scoped(&self, name: &'static str, ctx: Option<&RequestCtx>) {
        self.exit_impl(name, ctx);
    }

    fn record(&self, histogram: &'static str, value: f64) {
        let mut state = self.lock();
        state.histograms.entry(histogram).or_default().record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        let sink = TraceSink::new();
        sink.count(Counter::HeapPush, 3);
        sink.count(Counter::HeapPush, 2);
        sink.count(Counter::BudgetReject, 1);
        assert_eq!(sink.counter(Counter::HeapPush), 5);
        assert_eq!(sink.counter(Counter::BudgetReject), 1);
        assert_eq!(sink.counter(Counter::DpCellVisit), 0);
        let snap = sink.counters();
        assert_eq!(snap.len(), Counter::ALL.len());
        assert!(snap.contains(&(Counter::HeapPush, 5)));
    }

    #[test]
    fn counter_names_are_unique_and_snake_case() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let sink = TraceSink::new();
        sink.span_enter("outer");
        sink.span_enter("inner");
        sink.span_exit("inner");
        sink.span_enter("inner");
        sink.span_exit("inner");
        sink.span_exit("outer");
        let totals = sink.span_totals();
        assert_eq!(totals.len(), 2);
        let inner = totals.iter().find(|t| t.name == "inner").unwrap();
        let outer = totals.iter().find(|t| t.name == "outer").unwrap();
        assert_eq!(inner.count, 2);
        assert_eq!(outer.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn mismatched_span_exit_is_ignored() {
        let sink = TraceSink::new();
        sink.span_exit("never_opened");
        assert!(sink.span_totals().is_empty());
    }

    #[test]
    fn with_span_returns_closure_value() {
        let sink = TraceSink::new();
        let out = with_span(&sink, "phase", || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(sink.span_totals()[0].count, 1);
    }

    #[test]
    fn noop_probe_is_disabled_and_inert() {
        assert!(!NOOP.enabled());
        NOOP.count(Counter::HeapPop, 10);
        NOOP.span_enter("x");
        NOOP.span_exit("x");
        NOOP.record("h", 1.0);
    }

    #[test]
    fn jsonl_writer_emits_valid_lines_and_summary() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = TraceSink::with_writer(Box::new(Shared(buf.clone())));
        with_span(&sink, "solve", || {
            sink.count(Counter::HeapPush, 7);
            sink.record("lat", 100.0);
        });
        sink.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "enter + exit + summary: {text}");
        assert!(lines[0].contains("\"span_enter\""));
        assert!(lines[1].contains("\"span_exit\""));
        assert!(lines[2].contains("\"summary\""));
        assert!(lines[2].contains("\"heap_push\":7"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn local_counters_flush_once_and_reset() {
        let sink = TraceSink::new();
        let mut local = LocalCounters::new();
        local.count(Counter::DpCellVisit, 10);
        local.count(Counter::DpCellVisit, 5);
        local.count(Counter::HeapPush, 2);
        assert_eq!(local.get(Counter::DpCellVisit), 15);
        local.flush_into(&sink);
        assert_eq!(sink.counter(Counter::DpCellVisit), 15);
        assert_eq!(sink.counter(Counter::HeapPush), 2);
        // flushing again adds nothing: deltas were zeroed
        local.flush_into(&sink);
        assert_eq!(sink.counter(Counter::DpCellVisit), 15);
        local.count(Counter::HeapPush, 1);
        local.flush_into(&sink);
        assert_eq!(sink.counter(Counter::HeapPush), 3);
    }

    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dropping_an_unfinished_sink_still_writes_the_summary() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        {
            let sink = TraceSink::with_writer(Box::new(SharedBuf(buf.clone())));
            sink.count(Counter::HeapPush, 3);
            // no finish(): the drop path must cover it
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"summary\""), "drop must flush the summary: {text:?}");
        assert!(text.contains("\"heap_push\":3"));
    }

    #[test]
    fn finish_writes_the_summary_exactly_once() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = TraceSink::with_writer(Box::new(SharedBuf(buf.clone())));
        sink.finish().unwrap();
        sink.finish().unwrap();
        drop(sink);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.matches("\"summary\"").count(), 1, "{text:?}");
    }

    #[test]
    fn drop_flush_survives_a_panic_unwind() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        let buf2 = buf.clone();
        let _ = std::panic::catch_unwind(move || {
            let sink = TraceSink::with_writer(Box::new(SharedBuf(buf2)));
            sink.count(Counter::ServePanic, 1);
            panic!("boom");
        });
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"summary\""), "unwind must flush the summary: {text:?}");
        assert!(text.contains("\"serve_panic\":1"));
    }

    #[test]
    fn request_probe_stamps_spans_with_the_request_id() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = TraceSink::with_writer(Box::new(SharedBuf(buf.clone())));
        let ctx = RequestCtx::new("req-42");
        let scoped = RequestProbe::new(&sink, ctx);
        with_span(&scoped, "solve", || {
            scoped.count(Counter::DpCellVisit, 5);
        });
        assert_eq!(sink.counter(Counter::DpCellVisit), 5, "counts pass through");
        assert_eq!(sink.span_totals()[0].name, "solve", "spans aggregate in the parent");
        sink.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        for line in text.lines().filter(|l| l.contains("\"span_")) {
            assert!(line.contains("\"request_id\":\"req-42\""), "{line}");
        }
    }

    #[test]
    fn unscoped_spans_carry_no_request_id() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = TraceSink::with_writer(Box::new(SharedBuf(buf.clone())));
        with_span(&sink, "solve", || {});
        sink.finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(!text.contains("request_id"));
    }

    #[test]
    fn histograms_reachable_through_probe_interface() {
        let sink = TraceSink::new();
        let probe: &dyn Probe = &sink;
        for v in [1.0, 2.0, 4.0, 1000.0] {
            probe.record("vals", v);
        }
        let s = sink.histogram_summary("vals").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert_eq!(sink.histogram_names(), vec!["vals".to_string()]);
        assert!(sink.histogram_summary("missing").is_none());
    }
}
