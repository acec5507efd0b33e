//! Throughput of the `usep-serve` service end to end: real sockets,
//! admission, journal-free solve path, typed responses.
//!
//! The criterion group times one request/response roundtrip against a
//! live in-process server. The export pass then drives a burst of
//! requests from several client threads, computes qps and client-side
//! latency quantiles, cross-checks the counts against the server's own
//! `/metrics` exposition, and writes the summary, stamped with the
//! host's hardware thread count, to `BENCH_serve.json` at the workspace
//! root — path overridable via `BENCH_SERVE_JSON` — so CI can track the
//! serving trajectory next to `BENCH_par.json`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{send_request, ServeConfig, Server, SolveRequest, Status};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
const BURST_REQUESTS: usize = 96;
const CLIENT_THREADS: usize = 4;

fn bench_instance(seed: u64) -> Instance {
    generate(&SyntheticConfig::tiny().with_events(8).with_users(40).with_capacity_mean(5), seed)
}

fn request(id: String, seed: u64) -> SolveRequest {
    SolveRequest {
        id,
        instance: std::sync::Arc::new(bench_instance(seed)),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    }
}

fn start_server() -> usep_serve::ServerHandle {
    Server::start(ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .expect("bench server start")
}

fn bench(c: &mut Criterion) {
    let server = start_server();
    let addr = server.addr();
    let mut g = c.benchmark_group("serve_throughput");
    g.sample_size(10).warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(2));
    let mut n = 0u64;
    g.bench_with_input(BenchmarkId::new("roundtrip", 1), &(), |b, ()| {
        b.iter(|| {
            n += 1;
            let resp =
                send_request(addr, &request(format!("bench-{n}"), n), CLIENT_TIMEOUT).unwrap();
            assert_eq!(resp.status, Status::Complete);
            black_box(resp.omega)
        })
    });
    g.finish();
    server.shutdown();
    server.wait();
}

fn quantile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ms.len() as f64).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn export_summary() {
    let server = start_server();
    let addr = server.addr();
    let maddr = server.metrics_addr().expect("metrics listener").to_string();

    let burst_started = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..BURST_REQUESTS / CLIENT_THREADS {
                        let id = format!("burst-{t}-{i}");
                        let seed = (t * 1000 + i) as u64;
                        let t0 = Instant::now();
                        let resp = send_request(addr, &request(id, seed), CLIENT_TIMEOUT)
                            .expect("bench request");
                        assert_eq!(resp.status, Status::Complete, "{resp:?}");
                        out.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = burst_started.elapsed().as_secs_f64();

    let mut sorted = latencies.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let total = sorted.len();
    let qps = total as f64 / elapsed.max(1e-9);

    // the server's own exposition must agree with the client's count
    let text = usep_obs::http::get(&maddr, "/metrics", Duration::from_secs(10))
        .expect("scrape /metrics");
    let scrape = usep_obs::top::parse_exposition(&text);
    let accepted = scrape.value("usep_serve_accepted_total").unwrap_or(0.0);
    assert!(
        accepted >= total as f64,
        "metrics disagree with the client: accepted={accepted} sent={total}"
    );

    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        concat!(
            "{{\"bench\":\"serve_throughput\",\"hardware_threads\":{},",
            "\"requests\":{},\"client_threads\":{},",
            "\"workers\":2,\"elapsed_s\":{:.3},\"qps\":{:.1},",
            "\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},",
            "\"metrics_accepted\":{}}}\n"
        ),
        hardware_threads,
        total,
        CLIENT_THREADS,
        elapsed,
        qps,
        quantile(&sorted, 0.50),
        quantile(&sorted, 0.95),
        quantile(&sorted, 0.99),
        accepted as u64,
    );
    server.shutdown();
    server.wait();

    let path = std::env::var("BENCH_SERVE_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| usep_bench::workspace_root_path("BENCH_serve.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench);

fn main() {
    // mirror the harness's test-mode gate: `cargo test` builds and runs
    // harness=false bench binaries without `--bench`
    if !std::env::args().skip(1).any(|a| a == "--bench") {
        return;
    }
    benches();
    export_summary();
}
