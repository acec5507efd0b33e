//! The core contract of `usep-par`: thread count is invisible in every
//! output. Solvers, local search and the relaxation bounds must produce
//! **byte-identical** results at 1, 2 and 8 threads, and a guard trip
//! must truncate a solve at the same point at 1 and 4 threads. The
//! solvers run on the calling thread; local search and the bound fan
//! out over several workers on this suite's instances, so a
//! scheduling-dependent reduction or commit order would fail here.
//!
//! The thread count is a process-global override, so every test holds
//! `THREADS_LOCK` while flipping it and restores the default before
//! releasing.

use proptest::prelude::*;
use std::sync::Mutex;
use usep_algos::{
    bounds, local_search, solve, solve_guarded, Algorithm, Guard, GuardedSolver, SolveBudget,
    TruncationReason,
};
use usep_core::{Instance, Planning};
use usep_gen::{generate, SyntheticConfig};
use usep_trace::{TraceSink, NOOP};

static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the global thread override pinned to `n`, restoring
/// the unset default afterwards. Callers must hold [`THREADS_LOCK`].
fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    usep_par::set_threads(n);
    let r = f();
    usep_par::set_threads(0);
    r
}

/// An instance big enough that the bound's per-user DPs and the
/// local-search rounds spread over every worker.
fn large_instance(seed: u64) -> Instance {
    generate(
        &SyntheticConfig::tiny().with_events(40).with_users(64).with_capacity_mean(4),
        seed,
    )
}

#[test]
fn all_solvers_identical_across_thread_counts() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in [11u64, 12, 13] {
        let inst = large_instance(seed);
        for a in Algorithm::PAPER_SET {
            let sequential = at_threads(1, || solve(a, &inst));
            for threads in [2usize, 8] {
                let parallel = at_threads(threads, || solve(a, &inst));
                assert_eq!(
                    parallel, sequential,
                    "{a} seed {seed}: planning differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn local_search_identical_across_thread_counts() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in [21u64, 22] {
        let inst = large_instance(seed);
        let base = solve(Algorithm::DeGreedy, &inst);
        let polish = |threads: usize| {
            at_threads(threads, || {
                let mut p = base.clone();
                let moves = local_search::improve(&inst, &mut p, 5);
                (p, moves)
            })
        };
        let (seq_p, seq_moves) = polish(1);
        for threads in [2usize, 8] {
            let (par_p, par_moves) = polish(threads);
            assert_eq!(par_p, seq_p, "seed {seed}: planning differs at {threads} threads");
            assert_eq!(par_moves, seq_moves, "seed {seed}: move count differs");
        }
    }
}

#[test]
fn bounds_bit_identical_across_thread_counts() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in [31u64, 32] {
        let inst = large_instance(seed);
        let seq = at_threads(1, || bounds::capacity_relaxed_bound(&inst));
        for threads in [2usize, 8] {
            let par = at_threads(threads, || bounds::capacity_relaxed_bound(&inst));
            // f64 sums are order-sensitive; the reduction must preserve
            // user-id order exactly, so this is ==, not approx
            assert!(
                par == seq,
                "seed {seed}: bound {par} != {seq} at {threads} threads"
            );
        }
    }
}

/// Fifty seeded instances through the guarded solve path: the planning
/// AND the complete trace-counter snapshot must be identical at 1 and 4
/// threads. Counters catch divergence that equal plannings can mask —
/// e.g. a parallel section doing different work per thread count but
/// converging on the same output by luck.
#[test]
fn guarded_plannings_and_counter_snapshots_identical_1_vs_4_threads() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for seed in 0..50u64 {
        // cycle through all six solvers across the seed sweep
        let algo = Algorithm::PAPER_SET[(seed % Algorithm::PAPER_SET.len() as u64) as usize];
        let inst = large_instance(100 + seed);
        let run = |threads: usize| {
            at_threads(threads, || {
                let sink = TraceSink::new();
                let report =
                    GuardedSolver::new(algo, SolveBudget::unlimited()).solve_with_probe(&inst, &sink);
                (report.planning, report.executed, report.fallbacks, sink.counters())
            })
        };
        let (p1, e1, f1, c1) = run(1);
        let (p4, e4, f4, c4) = run(4);
        assert_eq!(p1, p4, "{algo} seed {seed}: planning differs at 4 threads");
        assert_eq!(e1, e4, "{algo} seed {seed}: executed tier differs");
        assert_eq!(f1, f4, "{algo} seed {seed}: fallback trail differs");
        assert_eq!(c1, c4, "{algo} seed {seed}: trace-counter snapshot differs");
    }
}

/// A guard trip cuts a solve at the same point whatever the thread
/// count: at every trip point the planning and the outcome are
/// identical at 1 and 4 threads. The truncated planning is a
/// constraint-valid prefix: never half-applied, never better than the
/// complete solve.
#[test]
fn chaos_trip_yields_the_same_valid_prefix_at_1_and_4_threads() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let inst = large_instance(41);
    for algo in [Algorithm::RatioGreedy, Algorithm::DeDPORG, Algorithm::DeGreedyRG] {
        let complete = solve(algo, &inst);
        // step through trip points densely enough to land in every
        // phase: the seed, the drain and the +RG pass
        for k in (0u64..60).chain((60..400).step_by(17)) {
            let run = |threads: usize| {
                at_threads(threads, || {
                    let budget =
                        SolveBudget::unlimited().with_chaos_trip(k, TruncationReason::Deadline);
                    solve_guarded(algo, &inst, &Guard::new(&budget), &NOOP)
                })
            };
            let (gs, at_4) = (run(1), run(4));
            assert_eq!(gs.planning, at_4.planning, "{algo} tripped at {k}: planning differs");
            assert_eq!(gs.outcome, at_4.outcome, "{algo} tripped at {k}: outcome differs");
            gs.planning.validate(&inst).unwrap_or_else(|e| {
                panic!("{algo} tripped at checkpoint {k}: infeasible planning: {e}")
            });
            if gs.outcome.is_complete() {
                assert_eq!(gs.planning, complete, "{algo} at {k}: complete but different");
            } else {
                assert!(
                    gs.planning.omega(&inst) <= complete.omega(&inst) + 1e-9,
                    "{algo} at {k}: truncated Ω beats the complete solve"
                );
            }
        }
    }
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..40, 1usize..64, 1u32..6, any::<u64>()).prop_map(|(nv, nu, cap, seed)| {
        generate(
            &SyntheticConfig::tiny().with_events(nv).with_users(nu).with_capacity_mean(cap),
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random instances, every paper solver: plannings are identical at
    /// 1, 2 and 8 threads (and so is a local-search polish on top).
    #[test]
    fn solve_is_thread_count_invariant(inst in arb_instance(), ai in 0usize..7) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let algo = Algorithm::PAPER_SET[ai % Algorithm::PAPER_SET.len()];
        let runs: Vec<Planning> = [1usize, 2, 8]
            .iter()
            .map(|&t| at_threads(t, || {
                let mut p = solve(algo, &inst);
                local_search::improve(&inst, &mut p, 2);
                p
            }))
            .collect();
        prop_assert!(runs[0] == runs[1], "{} differs at 2 threads", algo);
        prop_assert!(runs[0] == runs[2], "{} differs at 8 threads", algo);
    }
}
