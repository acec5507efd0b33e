//! Pieces every workload shares: seeded randomness, quantiles, the
//! metric catalogue, the failure tally and the server plumbing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use usep_obs::top::{parse_exposition, Scrape};
use usep_serve::{ServeConfig, Server, ServerHandle};

/// The end-to-end metrics, in output order: `(name, unit)`. Every
/// untraced run reports each of them; `tests/selftest.rs` checks this
/// list against `BENCHMARK.json`.
pub const E2E: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("solve_s.ratio_greedy", "s"),
    ("solve_s.dedpo", "s"),
    ("solve_s.dedpo_rg", "s"),
    ("solve_s.degreedy", "s"),
    ("solve_s.degreedy_rg", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("omega_sum", "utility"),
    ("peak_heap_mb", "MB"),
    ("repair_frac", "frac"),
];

/// The per-layer metrics of the traced run, in output order. A layer
/// that does no work on a workload reports 0 there.
pub const LAYERS: [(&str, &str); 59] = [
    ("core.freeze_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("algos.ratio_greedy.heap_pops", "count"),
    ("algos.ratio_greedy.stale_pop_frac", "frac"),
    ("algos.ratio_greedy.refreshes", "count"),
    ("algos.ratio_greedy.budget_rejects", "count"),
    ("algos.ratio_greedy.capacity_rejects", "count"),
    ("algos.dedpo.dp_cells", "count"),
    ("algos.dedpo.dp_pruned_frac", "frac"),
    ("algos.augment_ms.dedpo", "ms"),
    ("algos.augment_ms.degreedy", "ms"),
    ("algos.ratio_greedy.peak_mb", "MB"),
    ("algos.dedpo.peak_mb", "MB"),
    ("algos.dedpo_rg.peak_mb", "MB"),
    ("algos.degreedy.peak_mb", "MB"),
    ("algos.degreedy_rg.peak_mb", "MB"),
    ("par.sections.ratio_greedy", "count"),
    ("par.speedup.ratio_greedy", "x"),
    ("serve.admission_ms.p50", "ms"),
    ("serve.admission_ms.p90", "ms"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p90", "ms"),
    ("serve.solve_ms.p50", "ms"),
    ("serve.solve_ms.p90", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("serve.transport_ms.p90", "ms"),
    ("serve.decode_ms.p50", "ms"),
    ("serve.encode_ms.p50", "ms"),
    ("serve.journal_append_ms.p50", "ms"),
    ("serve.journal_append_ms.p90", "ms"),
    ("serve.journal_bytes_per_req", "B"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("loadgen.late_ms.max", "ms"),
    ("delta.open_ms", "ms"),
    ("delta.apply_ms.p50", "ms"),
    ("delta.apply_ms.p90", "ms"),
    ("delta.apply_ms.repair.p50", "ms"),
    ("delta.apply_ms.fallback.p50", "ms"),
    ("delta.fallbacks", "count"),
    ("delta.touched_mean", "count"),
    ("delta.evicted", "count"),
    ("delta.added", "count"),
    ("trace.overhead_frac", "frac"),
    ("host.kernel_ms", "ms"),
    ("wall.setup_s", "s"),
    ("wall.solve_s.ratio_greedy", "s"),
    ("wall.solve_s.dedpo", "s"),
    ("wall.solve_s.dedpo_rg", "s"),
    ("wall.solve_s.degreedy", "s"),
    ("wall.solve_s.degreedy_rg", "s"),
    ("wall.req_p50_ms", "ms"),
    ("wall.req_p90_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    ("delta.mutations", "count"),
    ("serve.journal_append_samples", "count"),
];

/// How big a run is: `Full` is the benchmark, `Smoke` the reduced
/// scale the self-test drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One run's settings, from the command line.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory inside the checkout (journals live here).
    pub tmp: PathBuf,
}

/// Share of `--seconds` the serve workloads give the in-process solver
/// rounds behind `solve_s.*`, in three slots: before, between and after
/// the two halves of their load, which gets the rest.
const CALIBRATION_SHARE: f64 = 0.25;

/// Seconds of load a serve workload offers.
pub fn load_secs(cfg: &RunCfg) -> f64 {
    cfg.seconds as f64 * (1.0 - CALIBRATION_SHARE)
}

/// One of the three solver-round slots of a serve workload.
pub fn calibration_slot(cfg: &RunCfg) -> Duration {
    Duration::from_secs_f64(cfg.seconds as f64 * CALIBRATION_SHARE / 3.0)
}

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MB: f64 = 1024.0 * 1024.0;

/// Metric values by name. `None` carries the reason the value cannot be
/// measured on this machine.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Result<f64, String>>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), Ok(value));
    }

    pub fn set_null(&mut self, name: &str, reason: impl Into<String>) {
        self.0.insert(name.to_string(), Err(reason.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).and_then(|v| v.as_ref().ok().copied())
    }

    pub fn entry(&self, name: &str) -> Option<&Result<f64, String>> {
        self.0.get(name)
    }
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Records a failure of an operation already counted (or of a
    /// run-level check, which counts as one more failed operation).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.violations.len() < 50 {
            self.violations.push(why);
        }
    }

    /// A run-level check: one attempted operation that fails on `Err`.
    pub fn check(&mut self, result: Result<(), String>) {
        self.op(result);
    }
}

/// Starts the in-process server every serve workload uses: two solver
/// workers, a file journal with fsync in `dir`, and `/metrics` on.
pub fn start_server(dir: &Path, tag: &str) -> std::io::Result<ServerHandle> {
    let journal = dir.join(format!("journal-{tag}.jsonl"));
    let _ = std::fs::remove_file(&journal);
    Server::start(ServeConfig {
        workers: 2,
        journal: Some(journal),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
}

/// Scrapes the server's `/metrics` page.
pub fn scrape(server: &ServerHandle) -> Result<Scrape, String> {
    let addr = server.metrics_addr().ok_or("server has no metrics listener")?.to_string();
    let text = usep_obs::http::get(&addr, "/metrics", Duration::from_secs(10))
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    Ok(parse_exposition(&text))
}

/// The serve ledger identity: everything admitted is completed, failed
/// or still in flight.
pub fn reconcile(s: &Scrape) -> Result<(), String> {
    let accepted = s.value("usep_serve_accepted_total").unwrap_or(f64::NAN);
    let completed = s.family_sum("usep_serve_completed_total");
    let failed = s.family_sum("usep_serve_failed_total");
    let inflight = s.value("usep_serve_inflight").unwrap_or(f64::NAN);
    if accepted == completed + failed + inflight {
        Ok(())
    } else {
        Err(format!(
            "/metrics reconciliation: accepted {accepted} != completed {completed} + failed {failed} + inflight {inflight}"
        ))
    }
}

/// Graceful stop: drain, then join every server thread.
pub fn stop_server(server: ServerHandle) {
    server.shutdown();
    server.wait();
}

/// Threads the load generator may use: one per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
