//! The serve observability plane: every metric the server exports.
//!
//! [`ServeMetrics`] owns the Prometheus [`MetricsRegistry`], the
//! [`FlightRecorder`] ring buffer, and the atomic cells the serve hot
//! path increments. Three sourcing strategies coexist:
//!
//! * **cells** — `Arc<AtomicU64>` counters the serve code bumps
//!   directly where the label is only known at the event site
//!   (shed reason, completion status, failure reason, executed tier);
//! * **pull closures** — gauges and counters sampled at scrape time
//!   from structures that already track the truth (`Admission` depth
//!   and ledger, `TraceSink` counters, flight-recorder sequence);
//! * **histogram snapshots** — `TraceSink` log₂ histograms cloned per
//!   scrape and rendered as cumulative `_bucket{le=...}` ladders.
//!
//! Sourcing the `usep_trace_events_total{counter=...}` family straight
//! from the sink means *every* [`Counter`] the workspace defines is on
//! `/metrics` without a per-counter wiring step — a counter added to
//! `usep-trace` shows up on the next scrape.
//!
//! Nothing here holds an `Arc` to the server's `Inner`: closures
//! capture only `Admission`, `TraceSink` and the recorder, so the
//! registry can outlive (or be dropped independently of) the server
//! without a reference cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::admission::Admission;
use usep_algos::Algorithm;
use usep_obs::{FlightRecorder, MetricsRegistry};
use usep_trace::{Counter, TraceSink};

/// Every algorithm a response's `executed` field can name.
const EXECUTABLE: [Algorithm; 8] = [
    Algorithm::RatioGreedy,
    Algorithm::DeDP,
    Algorithm::DeDPO,
    Algorithm::DeDPORG,
    Algorithm::DeGreedy,
    Algorithm::DeGreedyRG,
    Algorithm::SingleEventGreedy,
    Algorithm::UtilityGreedy,
];

/// The server's metrics registry, flight recorder, and hot-path cells.
pub struct ServeMetrics {
    /// The registry `/metrics` renders.
    pub registry: Arc<MetricsRegistry>,
    /// Last-N annotated events, dumped on demand, panic or shutdown.
    pub recorder: Arc<FlightRecorder>,
    /// Solve-intended lines read off sockets (everything screened).
    pub requests: Arc<AtomicU64>,
    /// Lines refused before admission (parse/validation/algorithm).
    pub rejected: Arc<AtomicU64>,
    /// Requests shed because the bounded queue was full.
    pub shed_queue_full: Arc<AtomicU64>,
    /// Requests shed because the memory ledger refused the estimate.
    pub shed_memory: Arc<AtomicU64>,
    /// Solves that ended `Complete`.
    pub completed_complete: Arc<AtomicU64>,
    /// Solves that ended `Truncated`.
    pub completed_truncated: Arc<AtomicU64>,
    /// Solves that ended `Failed` on a contained panic.
    pub failed_panic: Arc<AtomicU64>,
    /// Solves that ended `Failed` on the infeasible-planning quarantine.
    pub failed_infeasible: Arc<AtomicU64>,
    /// Requests shed with a typed `Failed` because the write-ahead
    /// journal could not durably record them (ENOSPC, dead disk).
    pub failed_journal: Arc<AtomicU64>,
    /// Requests answered by a tier below the one they asked for,
    /// labelled by the executing algorithm.
    degraded: Vec<(&'static str, Arc<AtomicU64>)>,
    /// Jobs currently inside a worker (gauge cell).
    pub inflight: Arc<AtomicU64>,
}

impl ServeMetrics {
    /// Builds the registry with every serve series registered, backed
    /// by `sink` and `admission` for the pull-sourced families.
    pub fn new(
        sink: Arc<TraceSink>,
        admission: Arc<Admission>,
        flightrec_capacity: usize,
    ) -> ServeMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::new(flightrec_capacity));
        let started = Instant::now();

        registry.gauge_fn(
            "usep_uptime_seconds",
            "Seconds since the metrics plane started.",
            vec![],
            move || started.elapsed().as_secs_f64(),
        );
        registry.gauge_fn(
            "usep_build_info",
            "Constant 1, labelled with the build version.",
            vec![("version", env!("CARGO_PKG_VERSION").to_string())],
            || 1.0,
        );

        // -- admission / saturation gauges ---------------------------
        let adm = Arc::clone(&admission);
        registry.gauge_fn(
            "usep_serve_queue_depth",
            "Requests holding a queue slot (queued or solving).",
            vec![],
            move || adm.depth() as f64,
        );
        let adm = Arc::clone(&admission);
        registry.gauge_fn(
            "usep_serve_queue_capacity",
            "Bounded queue slots configured.",
            vec![],
            move || adm.queue_capacity() as f64,
        );
        let adm = Arc::clone(&admission);
        registry.gauge_fn(
            "usep_serve_ledger_reserved_bytes",
            "Estimate bytes currently reserved in the admission ledger.",
            vec![],
            move || adm.reserved_bytes() as f64,
        );
        let adm = Arc::clone(&admission);
        registry.gauge_fn(
            "usep_serve_ledger_capacity_bytes",
            "Byte capacity of the admission ledger.",
            vec![],
            move || adm.ledger_capacity() as f64,
        );
        let inflight = Arc::new(AtomicU64::new(0));
        let cell = Arc::clone(&inflight);
        registry.gauge_fn(
            "usep_serve_inflight",
            "Jobs currently executing inside a worker thread.",
            vec![],
            move || cell.load(Ordering::Relaxed) as f64,
        );

        // -- request lifecycle counters ------------------------------
        let requests = registry.counter_cell(
            "usep_serve_requests_total",
            "Solve-intended request lines read off client sockets.",
            vec![],
        );
        let rejected = registry.counter_cell(
            "usep_serve_rejected_total",
            "Requests refused before admission (parse, validation, unknown algorithm).",
            vec![],
        );
        let shed_queue_full = registry.counter_cell(
            "usep_serve_shed_total",
            "Requests shed at admission, by reason.",
            vec![("reason", "queue_full".to_string())],
        );
        let shed_memory = registry.counter_cell(
            "usep_serve_shed_total",
            "Requests shed at admission, by reason.",
            vec![("reason", "memory_pressure".to_string())],
        );
        let completed_complete = registry.counter_cell(
            "usep_serve_completed_total",
            "Journaled solve completions, by outcome status.",
            vec![("status", "complete".to_string())],
        );
        let completed_truncated = registry.counter_cell(
            "usep_serve_completed_total",
            "Journaled solve completions, by outcome status.",
            vec![("status", "truncated".to_string())],
        );
        let failed_panic = registry.counter_cell(
            "usep_serve_failed_total",
            "Solves answered Failed, by reason.",
            vec![("reason", "panic".to_string())],
        );
        let failed_infeasible = registry.counter_cell(
            "usep_serve_failed_total",
            "Solves answered Failed, by reason.",
            vec![("reason", "infeasible".to_string())],
        );
        let failed_journal = registry.counter_cell(
            "usep_serve_failed_total",
            "Solves answered Failed, by reason.",
            vec![("reason", "journal".to_string())],
        );
        let degraded: Vec<(&'static str, Arc<AtomicU64>)> = EXECUTABLE
            .iter()
            .map(|a| {
                let cell = registry.counter_cell(
                    "usep_serve_degraded_total",
                    "Requests answered by a tier below the one requested, by executing algorithm.",
                    vec![("executed", a.name().to_string())],
                );
                (a.name(), cell)
            })
            .collect();

        // -- sink-sourced counters -----------------------------------
        for (name, help, c) in [
            (
                "usep_serve_accepted_total",
                "Requests admitted into the queue (journaled as accepted).",
                Counter::ServeAccept,
            ),
            (
                "usep_serve_retried_total",
                "Serve-level retries down the degradation chain.",
                Counter::GuardFallback,
            ),
            (
                "usep_serve_replayed_total",
                "Duplicate ids answered from the completion cache.",
                Counter::ServeReplay,
            ),
            (
                "usep_serve_resumed_total",
                "Requests re-enqueued from the journal at startup.",
                Counter::ServeResume,
            ),
        ] {
            let sink = Arc::clone(&sink);
            registry.counter_fn(name, help, vec![], move || sink.counter(c));
        }

        // The whole trace-counter registry, one labelled series per
        // Counter — any probe-visible event in the workspace is
        // scrapeable without per-counter wiring.
        for c in Counter::ALL {
            let sink = Arc::clone(&sink);
            registry.counter_fn(
                "usep_trace_events_total",
                "Workspace trace counters, by counter name.",
                vec![("counter", c.name().to_string())],
                move || sink.counter(c),
            );
        }

        let rec = Arc::clone(&recorder);
        registry.counter_fn(
            "usep_flightrec_events_total",
            "Events recorded into the flight-recorder ring (including overwritten ones).",
            vec![],
            move || rec.recorded(),
        );

        // -- latency histograms --------------------------------------
        for (name, help, key) in [
            (
                "usep_serve_solve_ms",
                "End-to-end solve wall-clock per job, milliseconds.",
                "serve.solve_ms",
            ),
            (
                "usep_serve_queue_wait_ms",
                "Admitted-to-worker-pickup wait per job, milliseconds.",
                "serve.queue_wait_ms",
            ),
            (
                "usep_serve_queue_depth_at_accept",
                "Queue depth observed at each admission.",
                "serve.queue_depth",
            ),
            (
                "usep_delta_touched_entities",
                "Entities touched per delta-session mutation (bounded-repair work).",
                usep_delta::TOUCHED_HISTOGRAM,
            ),
        ] {
            let sink = Arc::clone(&sink);
            registry.histogram_fn(name, help, vec![], move || {
                sink.histogram(key).unwrap_or_default()
            });
        }

        ServeMetrics {
            registry,
            recorder,
            requests,
            rejected,
            shed_queue_full,
            shed_memory,
            completed_complete,
            completed_truncated,
            failed_panic,
            failed_infeasible,
            failed_journal,
            degraded,
            inflight,
        }
    }

    /// Bumps the degraded counter for the tier that actually executed.
    pub fn count_degraded(&self, executed: &str) {
        if let Some((_, cell)) = self.degraded.iter().find(|(n, _)| *n == executed) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders the current exposition (what `/metrics` serves).
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_trace::Probe;

    fn fresh() -> ServeMetrics {
        ServeMetrics::new(Arc::new(TraceSink::new()), Arc::new(Admission::new(4, 1 << 20)), 16)
    }

    #[test]
    fn every_trace_counter_name_appears_in_the_exposition() {
        let m = fresh();
        let text = m.render();
        for c in Counter::ALL {
            let needle = format!("usep_trace_events_total{{counter=\"{}\"}}", c.name());
            assert!(text.contains(&needle), "missing series {needle}");
        }
    }

    #[test]
    fn cells_show_up_in_the_rendered_text() {
        let m = fresh();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        m.count_degraded("RatioGreedy");
        m.count_degraded("not-an-algorithm"); // ignored, no panic
        let text = m.render();
        assert!(text.contains("usep_serve_requests_total 3"));
        assert!(text.contains("usep_serve_shed_total{reason=\"queue_full\"} 1"));
        assert!(text.contains("usep_serve_degraded_total{executed=\"RatioGreedy\"} 1"));
    }

    #[test]
    fn admission_gauges_track_the_live_ledger() {
        let sink = Arc::new(TraceSink::new());
        let admission = Arc::new(Admission::new(4, 1 << 20));
        let m = ServeMetrics::new(sink, Arc::clone(&admission), 16);
        let ticket = admission.try_admit(1000).unwrap();
        let text = m.render();
        assert!(text.contains("usep_serve_queue_depth 1"));
        assert!(text.contains("usep_serve_ledger_reserved_bytes 1000"));
        assert!(text.contains("usep_serve_ledger_capacity_bytes 1048576"));
        drop(ticket);
        assert!(m.render().contains("usep_serve_queue_depth 0"));
    }

    #[test]
    fn sink_counters_and_histograms_flow_through() {
        let sink = Arc::new(TraceSink::new());
        let m = ServeMetrics::new(Arc::clone(&sink), Arc::new(Admission::new(4, 1 << 20)), 16);
        sink.count(Counter::ServeAccept, 5);
        sink.record("serve.solve_ms", 3.0);
        sink.record("serve.solve_ms", 900.0);
        let text = m.render();
        assert!(text.contains("usep_serve_accepted_total 5"));
        assert!(text.contains("usep_serve_solve_ms_count 2"));
        assert!(text.contains("usep_serve_solve_ms_bucket{le=\"+Inf\"} 2"));
    }
}
