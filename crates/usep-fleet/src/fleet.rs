//! Fleet assembly: spawn the shards, start the router, watch both.
//!
//! [`Fleet::start`] is the one call behind `usep serve fleet`: it
//! launches N `usep serve` child processes (each a fleet *worker* with
//! its own `--shard-id`-stamped journal and optional metrics listener),
//! builds the partition table, and wires up the four long-lived
//! threads — the router accept loop, the health monitor, the shard
//! supervisor, and the fleet's own `/metrics` HTTP listener.

use crate::backoff::RetryPolicy;
use crate::health::{HealthMonitor, ShardState};
use crate::metrics::FleetMetrics;
use crate::partition::PartitionTable;
use crate::router::{Router, RouterConfig, RouterHandle};
use crate::supervisor::{spawn_shard, ShardProcessSpec, Supervisor};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use usep_trace::{json, TraceSink};

/// The three simulated Meetup cities `usep-gen` clusters instances
/// around; the default city map spreads them round-robin over shards.
pub const DEFAULT_CITIES: [&str; 3] = ["vancouver", "auckland", "singapore"];

/// Round-robin assignment of the default cities over `shards` — the
/// city map used when the operator does not hand one in.
pub fn default_city_map(shards: &[String]) -> Vec<(String, String)> {
    DEFAULT_CITIES
        .iter()
        .enumerate()
        .map(|(i, city)| (city.to_string(), shards[i % shards.len()].clone()))
        .collect()
}

/// Everything `Fleet::start` needs.
pub struct FleetConfig {
    /// Router solve-socket listen address (port 0 works).
    pub addr: String,
    /// Fleet `/metrics` listener address; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Binary to run shards with (the `usep` CLI).
    pub program: String,
    /// Number of shard workers to launch.
    pub shard_count: usize,
    /// Directory for the per-shard journals
    /// (`<dir>/shard-<i>.wal.jsonl`); created if missing.
    pub journal_dir: PathBuf,
    /// Explicit city → shard-name assignments; empty means
    /// [`default_city_map`] over the spawned shards.
    pub cities: Vec<(String, String)>,
    /// Extra arguments appended to every shard's `serve` invocation
    /// (worker counts, chaos knobs, …).
    pub shard_args: Vec<String>,
    /// Give each shard its own `--metrics-addr 127.0.0.1:0` listener so
    /// the health monitor can probe `/healthz` and scrape queue depth.
    pub shard_metrics: bool,
    /// Pass `--resume true` to the *initial* shard spawn — the restart
    /// path after a whole-fleet crash with surviving journals.
    pub resume: bool,
    /// Health-probe cadence.
    pub probe_interval: Duration,
    /// Per-probe connect/scrape timeout.
    pub probe_timeout: Duration,
    /// Router per-forward timeout.
    pub forward_timeout: Duration,
    /// Backoff schedule shared by router failover and supervisor
    /// restarts.
    pub retry: RetryPolicy,
    /// Router sweeps over the preference order before shedding.
    pub sweeps: u32,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            addr: "127.0.0.1:7979".to_string(),
            metrics_addr: None,
            program: "usep".to_string(),
            shard_count: 3,
            journal_dir: PathBuf::from("fleet-journals"),
            cities: Vec::new(),
            shard_args: Vec::new(),
            shard_metrics: true,
            resume: false,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(500),
            forward_timeout: Duration::from_secs(120),
            retry: RetryPolicy::default(),
            sweeps: 2,
        }
    }
}

/// A running fleet: router + shards + watchers. Dropping it shuts
/// everything down and kills the shard children.
pub struct FleetHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shards: Vec<Arc<ShardState>>,
    sink: Arc<TraceSink>,
    router: Option<RouterHandle>,
    supervisor: Option<Supervisor>,
    monitor: Option<HealthMonitor>,
    http: Option<usep_obs::http::HttpHandle>,
}

impl FleetHandle {
    /// The router's bound solve-socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fleet's bound `/metrics` address, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Shared per-shard state (health, addresses, counters).
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// The fleet's trace sink (fleet_* counters).
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Current shard child pids, by shard name — chaos tests aim their
    /// `kill -9` with these.
    pub fn pids(&self) -> Vec<(String, u32)> {
        self.supervisor.as_ref().map(Supervisor::pids).unwrap_or_default()
    }

    /// `SIGKILL`s the named shard's worker process (the scenario
    /// runner's process fault). The supervisor restarts it with
    /// `--resume` on its next poll. Returns whether the name matched a
    /// managed shard.
    pub fn kill_shard(&self, name: &str) -> bool {
        self.supervisor.as_ref().is_some_and(|s| s.kill_shard(name))
    }

    /// Stops the router, the watchers and every shard child.
    pub fn shutdown(&mut self) {
        if let Some(mut r) = self.router.take() {
            r.shutdown();
        }
        if let Some(mut m) = self.monitor.take() {
            m.shutdown();
        }
        if let Some(mut s) = self.supervisor.take() {
            s.shutdown();
        }
        if let Some(mut h) = self.http.take() {
            h.shutdown();
        }
    }
}

impl Drop for FleetHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Fleet entry point.
pub struct Fleet;

impl Fleet {
    /// Launches the shards, starts the router and watchers, and returns
    /// the running fleet's handle.
    pub fn start(cfg: FleetConfig) -> io::Result<FleetHandle> {
        if cfg.shard_count == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a fleet needs at least one shard",
            ));
        }
        std::fs::create_dir_all(&cfg.journal_dir)?;

        let names: Vec<String> = (0..cfg.shard_count).map(|i| format!("shard-{i}")).collect();
        let cities = if cfg.cities.is_empty() { default_city_map(&names) } else { cfg.cities.clone() };
        let table = PartitionTable::new(names.clone(), &cities)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

        // spawn every shard before starting any watcher, so a failed
        // launch tears the half-built fleet down cleanly
        let mut shards: Vec<Arc<ShardState>> = Vec::with_capacity(cfg.shard_count);
        let mut children = Vec::with_capacity(cfg.shard_count);
        for name in &names {
            let journal = cfg.journal_dir.join(format!("{name}.wal.jsonl"));
            let mut args = vec![
                "serve".to_string(),
                "--addr".to_string(),
                "127.0.0.1:0".to_string(),
                "--shard-id".to_string(),
                name.clone(),
                "--journal".to_string(),
                journal.to_string_lossy().into_owned(),
            ];
            if cfg.shard_metrics {
                args.extend(["--metrics-addr".to_string(), "127.0.0.1:0".to_string()]);
            }
            args.extend(cfg.shard_args.iter().cloned());
            if cfg.resume {
                args.extend(["--resume".to_string(), "true".to_string()]);
            }
            let spec = ShardProcessSpec { program: cfg.program.clone(), args };
            let (child, addr, metrics) = spawn_shard(&spec).map_err(|e| {
                for (_, _, mut c) in std::mem::take(&mut children) {
                    let _ = kill_and_wait(&mut c);
                }
                io::Error::new(e.kind(), format!("launching {name}: {e}"))
            })?;
            let shard = Arc::new(ShardState::new(name.clone(), addr));
            shard.set_metrics_addr(metrics);
            shards.push(Arc::clone(&shard));
            children.push((shard, spec, child));
        }

        let sink = Arc::new(TraceSink::new());
        let metrics = Arc::new(FleetMetrics::new(&shards, Arc::clone(&sink)));

        let router = Router::start(RouterConfig {
            addr: cfg.addr.clone(),
            table,
            shards: shards.clone(),
            retry: cfg.retry,
            forward_timeout: cfg.forward_timeout,
            sweeps: cfg.sweeps,
            sink: Arc::clone(&sink),
            metrics: Arc::clone(&metrics),
        })?;
        let addr = router.addr();

        let http = match &cfg.metrics_addr {
            Some(maddr) => {
                Some(usep_obs::http::serve(maddr, metrics_routes(&metrics, &shards, addr))?)
            }
            None => None,
        };
        let metrics_addr = http.as_ref().map(|h| h.addr());

        let monitor =
            HealthMonitor::spawn(shards.clone(), cfg.probe_interval, cfg.probe_timeout);
        let supervisor = Supervisor::start(children, cfg.retry, Arc::clone(&sink));

        Ok(FleetHandle {
            addr,
            metrics_addr,
            shards,
            sink,
            router: Some(router),
            supervisor: Some(supervisor),
            monitor: Some(monitor),
            http: Some(http).flatten(),
        })
    }
}

fn kill_and_wait(child: &mut std::process::Child) -> io::Result<()> {
    child.kill()?;
    child.wait().map(|_| ())
}

fn metrics_routes(
    metrics: &Arc<FleetMetrics>,
    shards: &[Arc<ShardState>],
    solve_addr: SocketAddr,
) -> usep_obs::http::Handler {
    let registry = Arc::clone(&metrics.registry);
    let buildinfo = json::Value::Map(vec![
        ("service".to_string(), json::Value::Str("usep-fleet".to_string())),
        ("version".to_string(), json::Value::Str(env!("CARGO_PKG_VERSION").to_string())),
        ("solve_addr".to_string(), json::Value::Str(solve_addr.to_string())),
        ("shards".to_string(), json::Value::U64(shards.len() as u64)),
        (
            "shard_names".to_string(),
            json::Value::Str(
                shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(","),
            ),
        ),
    ])
    .render();
    Box::new(move |path| match path {
        "/metrics" => Some(usep_obs::http::Response::text(registry.render())),
        "/healthz" => Some(usep_obs::http::Response::text("ok\n")),
        "/buildinfo" => Some(usep_obs::http::Response::json(buildinfo.clone())),
        _ => None,
    })
}
