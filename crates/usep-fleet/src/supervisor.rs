//! Shard process supervision: spawn, watch, restart-and-resume.
//!
//! Each shard is a child `usep serve` process with its own journal.
//! The supervisor parses the `listening`/`metrics` banner lines off
//! child stdout (so port-0 binds work), polls for unexpected exits,
//! and restarts a dead shard with `--resume true` after a capped
//! equal-jitter backoff ([`crate::backoff`], seeded from the
//! shard name so restart schedules are deterministic per shard). The
//! restarted process replays its own journal — the shard-id stamp
//! guarantees it can never accidentally replay a sibling's — and the
//! router picks the new address up from the shared [`ShardState`].

use crate::backoff::{seed_from_id, RetryPolicy};
use crate::health::ShardState;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use usep_trace::Probe;

/// How to launch one shard process. `args` must include the journal
/// flags; the supervisor owns `--resume` — it strips any existing
/// occurrence and appends `--resume true` on every restart (the CLI
/// flag parser rejects duplicates, so leaving a stale one in would
/// wedge the shard in a failed-restart loop).
#[derive(Clone, Debug)]
pub struct ShardProcessSpec {
    /// Binary to execute (the `usep` CLI in production and tests).
    pub program: String,
    /// Arguments, e.g. `["serve", "--addr", "127.0.0.1:0", ...]`.
    pub args: Vec<String>,
}

/// Launches `spec` and reads the banner: `listening ADDR` and, when a
/// metrics listener is configured, `metrics ADDR`. Returns the child
/// and both addresses. Child stderr is inherited (shard logs interleave
/// with the router's own).
pub fn spawn_shard(spec: &ShardProcessSpec) -> io::Result<(Child, String, Option<String>)> {
    let mut child = Command::new(&spec.program)
        .args(&spec.args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let expect_metrics = spec.args.iter().any(|a| a == "--metrics-addr");
    let mut addr = None;
    let mut metrics = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let status = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("shard exited before printing its banner (status {status:?})"),
            ));
        }
        if let Some(a) = line.trim().strip_prefix("listening ") {
            addr = Some(a.to_string());
        } else if let Some(m) = line.trim().strip_prefix("metrics ") {
            metrics = Some(m.to_string());
        }
        if addr.is_some() && (metrics.is_some() || !expect_metrics) {
            break;
        }
    }
    // keep draining stdout so the child can never block on a full pipe
    std::thread::Builder::new()
        .name("usep-fleet-drain".to_string())
        .spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        })?;
    Ok((child, addr.expect("checked above"), metrics))
}

struct Managed {
    shard: Arc<ShardState>,
    spec: ShardProcessSpec,
    child: Mutex<Child>,
}

/// Watches shard children and restarts the dead with `--resume`.
pub struct Supervisor {
    managed: Vec<Arc<Managed>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Takes ownership of already-spawned children (paired with their
    /// shard state and respawn spec) and starts the watch loop.
    pub fn start(
        shards: Vec<(Arc<ShardState>, ShardProcessSpec, Child)>,
        retry: RetryPolicy,
        sink: Arc<usep_trace::TraceSink>,
    ) -> Supervisor {
        let managed: Vec<Arc<Managed>> = shards
            .into_iter()
            .map(|(shard, spec, child)| {
                Arc::new(Managed { shard, spec, child: Mutex::new(child) })
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let watch: Vec<Arc<Managed>> = managed.clone();
        let thread = std::thread::Builder::new()
            .name("usep-fleet-supervisor".to_string())
            .spawn(move || {
                let mut attempts: Vec<u32> = vec![0; watch.len()];
                while !stop_loop.load(Ordering::SeqCst) {
                    for (i, m) in watch.iter().enumerate() {
                        let exited = {
                            let mut child = m.child.lock().unwrap_or_else(|p| p.into_inner());
                            matches!(child.try_wait(), Ok(Some(_)))
                        };
                        if !exited || stop_loop.load(Ordering::SeqCst) {
                            continue;
                        }
                        m.shard.mark_down();
                        attempts[i] = attempts[i].saturating_add(1);
                        let delay = retry.delay(attempts[i], seed_from_id(&m.shard.name));
                        eprintln!(
                            "usep-fleet: shard {} died; restart {} with --resume after {delay:?}",
                            m.shard.name, attempts[i]
                        );
                        std::thread::sleep(delay);
                        if stop_loop.load(Ordering::SeqCst) {
                            break;
                        }
                        let mut spec = m.spec.clone();
                        if let Some(at) = spec.args.iter().position(|a| a == "--resume") {
                            spec.args.drain(at..(at + 2).min(spec.args.len()));
                        }
                        spec.args.extend(["--resume".to_string(), "true".to_string()]);
                        match spawn_shard(&spec) {
                            Ok((child, addr, metrics)) => {
                                m.shard.set_addr(addr);
                                m.shard.set_metrics_addr(metrics);
                                m.shard.restarts.fetch_add(1, Ordering::SeqCst);
                                sink.count(usep_trace::Counter::FleetRestart, 1);
                                m.shard.mark_alive();
                                *m.child.lock().unwrap_or_else(|p| p.into_inner()) = child;
                                attempts[i] = 0;
                                eprintln!(
                                    "usep-fleet: shard {} resumed at {}",
                                    m.shard.name,
                                    m.shard.addr()
                                );
                            }
                            Err(e) => {
                                // stays Down; next poll retries with a
                                // longer (capped) backoff
                                eprintln!(
                                    "usep-fleet: restart of shard {} failed: {e}",
                                    m.shard.name
                                );
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
            .expect("spawn supervisor");
        Supervisor { managed, stop, thread: Some(thread) }
    }

    /// `SIGKILL`s the named shard's child process — the scenario
    /// runner's process-fault injector. The watch loop notices the exit
    /// on its next poll and restarts the shard with `--resume`, exactly
    /// as it would for an organic crash. Returns whether the shard name
    /// was known (the kill itself is fire-and-forget: a child that
    /// already exited is fine).
    pub fn kill_shard(&self, name: &str) -> bool {
        match self.managed.iter().find(|m| m.shard.name == name) {
            Some(m) => {
                let mut child = m.child.lock().unwrap_or_else(|p| p.into_inner());
                let _ = child.kill(); // SIGKILL on unix: no goodbye fsync
                true
            }
            None => false,
        }
    }

    /// Current child pids, by shard name — the chaos tests aim their
    /// `kill -9` with these.
    pub fn pids(&self) -> Vec<(String, u32)> {
        self.managed
            .iter()
            .map(|m| {
                let child = m.child.lock().unwrap_or_else(|p| p.into_inner());
                (m.shard.name.clone(), child.id())
            })
            .collect()
    }

    /// Stops the watch loop and kills every shard child.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        for m in &self.managed {
            let mut child = m.child.lock().unwrap_or_else(|p| p.into_inner());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
