//! Budget-supervised solving with graceful degradation.
//!
//! [`GuardedSolver`] wraps a requested [`Algorithm`] and a
//! [`SolveBudget`] and manages the whole solve lifecycle:
//!
//! * **Degradation** — memory trips walk down the chain
//!   `DeDP → DeDPO → DeGreedy+RG` (DeDPO produces identical plannings
//!   to DeDP with a fraction of the footprint). Only DeDP's `μ^r`
//!   matrix and the per-user DP's buffers reserve memory through the
//!   guard, and each charges the ceiling before allocating, so a tier
//!   that cannot fit costs one refused reservation, not a solve.
//!   DeGreedy+RG reserves nothing, so the last tier cannot trip a
//!   ceiling, and it beats RatioGreedy, the paper's Alg. 1 and the
//!   chain's last tier before it, on Ω, time and peak heap at every
//!   point measured. Every fallback is counted as a `guard_fallback`
//!   trace event.
//! * **Deadline splitting** — one wall-clock deadline covers the whole
//!   chain; each attempt runs under the time *remaining*, and a
//!   deadline or cancellation trip ends the chain immediately (retrying
//!   a slower algorithm cannot help).
//!
//! The result is a [`GuardedReport`]: the best constraint-valid
//! planning found (by Ω), which algorithm produced it, the fallback
//! trail, and the terminal [`SolveOutcome`]. `usep serve` runs this
//! same chain inside its unwind fence, so a served request and a
//! `usep solve` with the same budget walk the same tiers.

use crate::{solve_guarded, Algorithm, Probe};
use std::time::Instant;
use usep_core::{Instance, Planning};
use usep_guard::{Guard, SolveBudget, SolveOutcome, TruncationReason};
use usep_trace::{Counter, NOOP};

/// Orchestrates a solve under a [`SolveBudget`], degrading
/// `DeDP → DeDPO → DeGreedy+RG` on memory pressure.
#[derive(Clone, Debug)]
pub struct GuardedSolver {
    algorithm: Algorithm,
    budget: SolveBudget,
}

/// What a [`GuardedSolver`] run produced.
#[derive(Debug)]
pub struct GuardedReport {
    /// The best constraint-valid planning found across all attempts.
    pub planning: Planning,
    /// Terminal outcome: [`SolveOutcome::Complete`] when some attempt
    /// ran to its natural end, otherwise the last truncation.
    pub outcome: SolveOutcome,
    /// The algorithm originally requested.
    pub requested: Algorithm,
    /// The algorithm whose planning is returned.
    pub executed: Algorithm,
    /// Algorithms abandoned on a memory trip before `executed`, in
    /// attempt order.
    pub fallbacks: Vec<Algorithm>,
}

impl GuardedReport {
    /// True when the chain had to move past the requested algorithm.
    pub fn degraded(&self) -> bool {
        !self.fallbacks.is_empty()
    }
}

impl GuardedSolver {
    /// A guarded run of `algorithm` under `budget`.
    pub fn new(algorithm: Algorithm, budget: SolveBudget) -> GuardedSolver {
        GuardedSolver { algorithm, budget }
    }

    /// The memory-degradation chain starting at `algorithm`: which
    /// algorithms a guarded run may attempt, in order. Memory-frugal
    /// algorithms have nothing lighter to fall back to and form
    /// singleton chains.
    pub fn degradation_chain(algorithm: Algorithm) -> &'static [Algorithm] {
        match algorithm {
            Algorithm::DeDP => &[Algorithm::DeDP, Algorithm::DeDPO, Algorithm::DeGreedyRG],
            Algorithm::DeDPO => &[Algorithm::DeDPO, Algorithm::DeGreedyRG],
            Algorithm::DeDPORG => &[Algorithm::DeDPORG, Algorithm::DeGreedyRG],
            Algorithm::RatioGreedy => &[Algorithm::RatioGreedy],
            Algorithm::DeGreedy => &[Algorithm::DeGreedy],
            Algorithm::DeGreedyRG => &[Algorithm::DeGreedyRG],
            Algorithm::SingleEventGreedy => &[Algorithm::SingleEventGreedy],
            Algorithm::UtilityGreedy => &[Algorithm::UtilityGreedy],
        }
    }

    /// Runs the chain without instrumentation.
    pub fn solve(&self, inst: &Instance) -> GuardedReport {
        self.solve_with_probe(inst, &NOOP)
    }

    /// Runs the chain, reporting trips, fallbacks and spans through
    /// `probe`.
    pub fn solve_with_probe(&self, inst: &Instance, probe: &dyn Probe) -> GuardedReport {
        let chain = GuardedSolver::degradation_chain(self.algorithm);
        let start = Instant::now();
        let mut fallbacks: Vec<Algorithm> = Vec::new();
        // best planning by Ω across attempts, with its producer
        let mut best: Option<(Planning, Algorithm, f64)> = None;
        let mut terminal = SolveOutcome::Complete;

        probe.span_enter("guarded_solve");
        for (k, &algo) in chain.iter().enumerate() {
            let is_last = k + 1 == chain.len();
            let Some(remaining) = self.budget.with_remaining_deadline(start.elapsed()) else {
                terminal = SolveOutcome::Truncated { reason: TruncationReason::Deadline };
                break;
            };

            let guard = Guard::new(&remaining);
            let attempt = solve_guarded(algo, inst, &guard, probe);
            terminal = attempt.outcome;
            let omega = attempt.planning.omega(inst);
            if best.as_ref().is_none_or(|(_, _, best_omega)| omega > *best_omega) {
                best = Some((attempt.planning, algo, omega));
            }
            match attempt.outcome {
                SolveOutcome::Complete => break,
                SolveOutcome::Truncated { reason: TruncationReason::MemoryCeiling }
                    if !is_last =>
                {
                    // a lighter algorithm may fit — degrade and retry
                    probe.count(Counter::GuardFallback, 1);
                    fallbacks.push(algo);
                }
                // out of time or cancelled: retrying cannot help
                SolveOutcome::Truncated { .. } => break,
            }
        }
        probe.span_exit("guarded_solve");

        // no tier ran (the deadline had already passed): nothing was
        // executed below the requested algorithm, so name that one
        let (planning, executed, _) =
            best.unwrap_or_else(|| (Planning::empty(inst), self.algorithm, 0.0));
        GuardedReport {
            planning,
            outcome: terminal,
            requested: self.algorithm,
            executed,
            fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval, UserId};
    use usep_trace::TraceSink;

    fn dense_instance(nv: u32, nu: u32) -> Instance {
        let mut b = InstanceBuilder::new();
        for i in 0..nv {
            let s = i64::from(i) * 10;
            b.event(2, Point::new(i as i32, 0), TimeInterval::new(s, s + 9).unwrap());
        }
        for j in 0..nu {
            b.user(Point::new(j as i32, 1), Cost::new(100));
        }
        for v in 0..nv {
            for u in 0..nu {
                b.utility(
                    usep_core::EventId(v),
                    UserId(u),
                    ((v * nu + u) % 9 + 1) as f64 / 9.0,
                );
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn unlimited_budget_completes_without_fallback() {
        let inst = dense_instance(5, 4);
        let report =
            GuardedSolver::new(Algorithm::DeDP, SolveBudget::unlimited()).solve(&inst);
        assert!(report.outcome.is_complete());
        assert!(!report.degraded());
        assert_eq!(report.executed, Algorithm::DeDP);
        assert_eq!(report.planning, crate::solve(Algorithm::DeDP, &inst));
    }

    #[test]
    fn tiny_ceiling_refuses_the_dedp_matrix_before_allocating() {
        let inst = dense_instance(5, 4);
        // matrix needs 5*2 slots × 4 users × 8 bytes = 320 bytes > 64
        let budget = SolveBudget::unlimited().with_memory_ceiling(64);
        let sink = TraceSink::new();
        let report =
            GuardedSolver::new(Algorithm::DeDP, budget).solve_with_probe(&inst, &sink);
        assert!(report.fallbacks.contains(&Algorithm::DeDP));
        assert!(sink.counter(Counter::GuardFallback) >= 1);
        // DeDP's reservation was refused, so its matrix never existed
        assert_eq!(sink.counter(Counter::PseudoMatrixBytes), 0);
        assert!(sink.counter(Counter::GuardMemoryTrip) >= 1);
        assert!(report.planning.validate(&inst).is_ok());
    }

    #[test]
    fn chain_reaches_degreedy_rg_under_extreme_ceiling() {
        let inst = dense_instance(6, 5);
        // 1 byte: DeDP's matrix and DeDPO's DP scratch are refused at
        // their first reservation, DeGreedy+RG (no charged allocations)
        // completes
        let budget = SolveBudget::unlimited().with_memory_ceiling(1);
        let report = GuardedSolver::new(Algorithm::DeDP, budget).solve(&inst);
        assert_eq!(report.fallbacks, vec![Algorithm::DeDP, Algorithm::DeDPO]);
        assert_eq!(report.executed, Algorithm::DeGreedyRG);
        assert!(report.outcome.is_complete(), "terminal attempt ran unimpeded");
        assert!(report.planning.validate(&inst).is_ok());
        assert_eq!(report.planning, crate::solve(Algorithm::DeGreedyRG, &inst));
    }

    #[test]
    fn expired_deadline_returns_empty_truncated() {
        let inst = dense_instance(4, 3);
        let budget = SolveBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let report = GuardedSolver::new(Algorithm::DeDPO, budget).solve(&inst);
        assert_eq!(
            report.outcome,
            SolveOutcome::Truncated { reason: TruncationReason::Deadline }
        );
        // no tier ran, so the report names the requested one
        assert_eq!(report.executed, Algorithm::DeDPO);
        assert!(!report.degraded());
        assert!(report.planning.validate(&inst).is_ok());
    }

    #[test]
    fn singleton_chains_never_degrade() {
        for a in [
            Algorithm::RatioGreedy,
            Algorithm::DeGreedy,
            Algorithm::DeGreedyRG,
            Algorithm::UtilityGreedy,
        ] {
            assert_eq!(GuardedSolver::degradation_chain(a), &[a]);
        }
    }
}
