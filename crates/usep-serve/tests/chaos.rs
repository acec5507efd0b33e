//! The chaos gauntlet: 100 concurrent requests against a server with
//! both fault injectors armed — every solve's guard trips its memory
//! ceiling mid-solve (forcing the retry/degradation path) and every
//! Nth solve panics inside the fence. The server must survive all of
//! it: zero crashes, a typed response for every request, and every
//! returned planning constraint-valid for its instance.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{send_request, ServeConfig, Server, SolveRequest, Status};
use usep_trace::Counter;

fn instance(seed: u64) -> Instance {
    generate(&SyntheticConfig::tiny().with_events(5).with_users(20).with_capacity_mean(4), seed)
}

#[test]
fn hundred_requests_under_chaos_all_get_typed_responses() {
    const REQUESTS: usize = 100;
    const CLIENTS: usize = 8;

    let cfg = ServeConfig {
        workers: 4,
        // small queue so concurrency also exercises the shedding path
        queue_capacity: 6,
        // trip every solve's guard once it reaches checkpoint 40,
        // with the memory-ceiling reason the degradation chain acts on
        chaos_trip: Some(40),
        // panic inside the fence on every 7th solve
        chaos_panic_every: Some(7),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let next = Arc::new(AtomicUsize::new(0));
    let mut tallies: Vec<(usize, usize, usize, usize)> = Vec::new(); // (complete, truncated, failed, overloaded)
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let next = Arc::clone(&next);
            handles.push(scope.spawn(move || {
                let (mut complete, mut truncated, mut failed, mut overloaded) = (0, 0, 0, 0);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= REQUESTS {
                        break;
                    }
                    let req = SolveRequest {
                        id: format!("chaos-{i}"),
                        instance: std::sync::Arc::new(instance(1000 + i as u64)),
                        algorithm: None,
                        timeout_ms: Some(10_000),
                        mem_budget_mb: None,
                        city: None,
                    };
                    // every request must get exactly one typed response
                    let resp = send_request(addr, &req, Duration::from_secs(60))
                        .unwrap_or_else(|e| panic!("request chaos-{i} got no response: {e}"));
                    assert_eq!(resp.id, format!("chaos-{i}"));
                    match &resp.status {
                        Status::Complete => complete += 1,
                        Status::Truncated { reason } => {
                            assert_eq!(reason, "memory_ceiling", "{resp:?}");
                            truncated += 1;
                        }
                        Status::Failed { panic } => {
                            assert!(panic.contains("chaos"), "unexpected panic text: {panic}");
                            failed += 1;
                        }
                        Status::Overloaded { .. } => overloaded += 1,
                        Status::Rejected { error } => {
                            panic!("well-formed request rejected: {error}")
                        }
                    }
                    // any planning that came back must hold for its instance
                    if let Some(p) = &resp.planning {
                        p.validate(&req.instance).unwrap();
                    }
                }
                (complete, truncated, failed, overloaded)
            }));
        }
        for h in handles {
            tallies.push(h.join().expect("client thread must not die"));
        }
    });

    let complete: usize = tallies.iter().map(|t| t.0).sum();
    let truncated: usize = tallies.iter().map(|t| t.1).sum();
    let failed: usize = tallies.iter().map(|t| t.2).sum();
    let overloaded: usize = tallies.iter().map(|t| t.3).sum();
    assert_eq!(complete + truncated + failed + overloaded, REQUESTS);

    // with the trip armed at checkpoint 40 every tier truncates, so no
    // solve completes; the panic injector fires on ~1/7 of solves
    assert_eq!(complete, 0, "chaos trip should cut every solve short");
    assert!(truncated > 0, "the degradation path must produce truncated responses");
    assert!(failed > 0, "the panic injector fires on every 7th solve");
    assert_eq!(
        server.counter(Counter::ServePanic),
        failed as u64,
        "every contained panic is counted"
    );
    assert!(
        server.counter(Counter::GuardFallback) >= truncated as u64,
        "each truncated response walked at least one retry tier"
    );
    assert_eq!(
        server.counter(Counter::ServeShed),
        overloaded as u64,
        "sheds and Overloaded responses must agree"
    );

    // the server is still alive and serving after the gauntlet: with no
    // contention left, a clean non-panic-seq request drains normally
    let mut survived = false;
    for k in 0..8 {
        let req = SolveRequest {
            id: format!("aftermath-{k}"),
            instance: std::sync::Arc::new(instance(9000 + k)),
            algorithm: None,
            timeout_ms: Some(10_000),
            mem_budget_mb: None,
            city: None,
        };
        let resp = send_request(addr, &req, Duration::from_secs(60)).unwrap();
        // chaos is still armed, so the response is Truncated or Failed —
        // but it is a *response*, from a server that did not crash
        if matches!(resp.status, Status::Truncated { .. }) {
            survived = true;
        }
    }
    assert!(survived, "server must keep producing plannings after 100 chaos requests");

    server.shutdown();
    server.wait();
}
