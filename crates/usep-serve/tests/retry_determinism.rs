//! Determinism of the serve retry path (`solve_with_retry`), in-process.
//!
//! The serve path must be a pure function of (request, limits): the
//! planning bytes, the reported Ω, the executed tier and the full
//! trace-counter snapshot may not depend on the worker thread count or
//! on how often the request is replayed. This is what makes the
//! journal's crash/resume story sound — a resumed request re-solves to
//! the byte-identical response the dead server would have journaled.

use std::sync::Mutex;
use std::time::Duration;
use usep_algos::{Algorithm, GuardedSolver, SolveBudget, SolveOutcome, TruncationReason};
use usep_gen::{generate, SyntheticConfig};
use usep_serve::{solve_with_retry, SolveLimits, SolveRequest, Status};
use usep_trace::{Counter, TraceSink};

/// Serializes tests that flip the process-global thread override.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    usep_par::set_threads(n);
    let r = f();
    usep_par::set_threads(0);
    r
}

fn request(seed: u64) -> SolveRequest {
    let inst = generate(
        &SyntheticConfig::tiny().with_events(12).with_users(20).with_capacity_mean(3),
        seed,
    );
    SolveRequest {
        id: format!("det-{seed}"),
        instance: std::sync::Arc::new(inst),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    }
}

type Snapshot = (Option<usep_core::Planning>, f64, u64, u64, Vec<(Counter, u64)>);

fn run(req: &SolveRequest, limits: &SolveLimits, threads: usize) -> Snapshot {
    at_threads(threads, || {
        let sink = TraceSink::new();
        let resp = solve_with_retry(req, limits, &sink);
        (resp.planning, resp.omega, resp.assignments, resp.retries, sink.counters())
    })
}

#[test]
fn serve_path_identical_at_1_and_4_threads_on_50_seeds() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let limits = SolveLimits::default();
    for seed in 0..50u64 {
        let req = request(seed);
        let a = run(&req, &limits, 1);
        let b = run(&req, &limits, 4);
        assert_eq!(a.0, b.0, "seed {seed}: planning differs across thread counts");
        assert!(a.1 == b.1, "seed {seed}: omega {} != {}", a.1, b.1);
        assert_eq!(a.2, b.2, "seed {seed}: assignment count differs");
        assert_eq!(a.3, b.3, "seed {seed}: retry count differs");
        assert_eq!(a.4, b.4, "seed {seed}: trace-counter snapshot differs");
    }
}

#[test]
fn retry_chain_replays_byte_identically() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // a chaos trip forces every tier down the degradation chain, so the
    // retry path actually executes
    let limits = SolveLimits { chaos_trip: Some(40), ..SolveLimits::default() };
    for seed in [3u64, 7, 13] {
        let req = request(seed);
        let a = run(&req, &limits, 1);
        let b = run(&req, &limits, 1);
        assert_eq!(a.0, b.0, "seed {seed}: replayed planning differs");
        assert!(a.1 == b.1, "seed {seed}: replayed omega differs");
        assert_eq!(a.3, b.3, "seed {seed}: replayed retry count differs");
        assert_eq!(a.4, b.4, "seed {seed}: replayed counter snapshot differs");
    }
}

#[test]
fn retry_chain_is_exercised_and_counted() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let limits = SolveLimits { chaos_trip: Some(40), ..SolveLimits::default() };
    // DeDP has the full three-tier chain (DeDP → DeDPO → DeGreedy+RG)
    let req = SolveRequest { algorithm: Some("dedp".to_string()), ..request(5) };
    let sink = TraceSink::new();
    let resp = at_threads(1, || solve_with_retry(&req, &limits, &sink));
    // every tier tripped on the memory-ceiling chaos, so the chain ran
    // to its end: two retries (three tiers) and a truncated status
    assert_eq!(resp.retries, 2, "expected the full degradation chain");
    assert_eq!(sink.counter(Counter::GuardFallback), 2);
    assert!(matches!(resp.status, Status::Truncated { .. }), "{:?}", resp.status);
    // the best-so-far planning is still constraint-valid
    let planning = resp.planning.expect("truncated responses carry the best planning");
    planning.validate(&req.instance).unwrap();
}

/// `usep serve` and `usep solve` walk one degradation chain: for the
/// same budget the serve path answers with exactly the tier, planning
/// and outcome `GuardedSolver` reports, including ceilings just above
/// DeDP's `μ^r` matrix, where the matrix fits but nothing else does.
#[test]
fn serve_path_and_guarded_solver_agree_tier_for_tier() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let algorithms = [
        Algorithm::DeDP,
        Algorithm::DeDPO,
        Algorithm::DeDPORG,
        Algorithm::DeGreedy,
        Algorithm::RatioGreedy,
    ];
    let cfg = SyntheticConfig::default().with_events(30).with_users(200).with_capacity_mean(10);
    for seed in [7u64, 8, 9] {
        let inst = std::sync::Arc::new(generate(&cfg, seed));
        // the bytes DeDP reserves for its μ^r matrix
        let sink = TraceSink::new();
        usep_algos::solve_with_probe(Algorithm::DeDP, &inst, &sink);
        let matrix = sink.counter(Counter::PseudoMatrixBytes);
        if seed == 7 {
            assert_eq!(matrix, 468_800);
        }

        // (serve limits, request timeout, the equivalent budget)
        let mut cases = vec![(SolveLimits::default(), None, SolveBudget::unlimited())];
        for factor in [0.5, 1.0, 1.05, 1.1, 1.2, 2.0] {
            let bytes = (matrix as f64 * factor) as usize;
            cases.push((
                SolveLimits { max_mem_budget_bytes: Some(bytes), ..SolveLimits::default() },
                None,
                SolveBudget::unlimited().with_memory_ceiling(bytes),
            ));
        }
        for at in [10, 40, 200] {
            cases.push((
                SolveLimits { chaos_trip: Some(at), ..SolveLimits::default() },
                None,
                SolveBudget::unlimited().with_chaos_trip(at, TruncationReason::MemoryCeiling),
            ));
        }
        cases.push((
            SolveLimits::default(),
            Some(0),
            SolveBudget::unlimited().with_deadline(Duration::ZERO),
        ));

        for algorithm in algorithms {
            for (k, (limits, timeout_ms, budget)) in cases.iter().enumerate() {
                let req = SolveRequest {
                    id: format!("agree-{seed}-{k}"),
                    instance: std::sync::Arc::clone(&inst),
                    algorithm: Some(algorithm.name().to_string()),
                    timeout_ms: *timeout_ms,
                    mem_budget_mb: None,
                    city: None,
                };
                let at = format!("seed {seed}, {algorithm}, case {k}");
                let resp = at_threads(1, || solve_with_retry(&req, limits, &TraceSink::new()));
                let report = at_threads(1, || {
                    GuardedSolver::new(algorithm, budget.clone())
                        .solve_with_probe(&inst, &TraceSink::new())
                });
                assert_eq!(resp.executed.as_deref(), Some(report.executed.name()), "{at}");
                assert_eq!(resp.retries, report.fallbacks.len() as u64, "{at}");
                match (&resp.status, report.outcome) {
                    (Status::Complete, SolveOutcome::Complete) => {}
                    (Status::Truncated { reason }, SolveOutcome::Truncated { reason: r }) => {
                        assert_eq!(reason, r.name(), "{at}")
                    }
                    (status, outcome) => panic!("{at}: {status:?} against {outcome:?}"),
                }
                assert_eq!(
                    resp.omega.to_bits(),
                    report.planning.omega(&inst).to_bits(),
                    "{at}: omega"
                );
                assert_eq!(resp.planning.as_ref(), Some(&report.planning), "{at}: planning");
            }
        }
    }
}
