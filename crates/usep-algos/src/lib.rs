//! Planning algorithms for the USEP problem (She, Tong, Chen — SIGMOD 2015).
//!
//! The paper proposes one heuristic and a two-step approximation
//! framework, all implemented here:
//!
//! | Algorithm | Paper | Guarantee | Notes |
//! |-----------|-------|-----------|-------|
//! | [`RatioGreedy`] | Alg. 1 | none | global utility/cost-ratio greedy over event-user pairs |
//! | [`DeDP`] | Alg. 2+3 | ½-approx | decomposed dynamic programming; stores the full `μ^r` pseudo-event matrix (memory-hungry, kept literal on purpose) |
//! | [`DeDPO`] | Alg. 4 | ½-approx | DeDP with the `select` array of Lemma 2 — identical output, much less memory |
//! | [`DeDPO`]`+RG` | §4.3.2 | ½-approx | DeDPO followed by a RatioGreedy pass over residual capacity |
//! | [`DeGreedy`] | Alg. 5 | none | the two-step framework with a per-user greedy instead of the DP |
//! | [`DeGreedy`]`+RG` | §4.4 | none | DeGreedy plus the RatioGreedy pass |
//!
//! All solvers are deterministic and return feasible plannings
//! (`Planning::validate` always passes on their output).
//!
//! The [`exact`] module hosts brute-force reference solvers used by the
//! test suite to verify optimality of the per-user DP and the
//! ½-approximation bound, and [`baseline`] a single-event-per-user
//! assignment in the spirit of the SEO problem the paper contrasts with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod baseline;
pub mod bounds;
pub mod dedp;
pub mod degreedy;
pub mod exact;
pub mod guarded;
pub mod local_search;
pub mod maxmin;
pub mod ratio_greedy;

pub use augment::{augment_events_with_ratio_greedy, augment_with_ratio_greedy};
pub use baseline::{SingleEventGreedy, UtilityGreedy};
pub use bounds::best_upper_bound;
pub use dedp::{optimal_user_schedule, DeDP, DeDPO};
pub use degreedy::DeGreedy;
pub use guarded::{GuardedReport, GuardedSolver};
pub use local_search::WithLocalSearch;
pub use maxmin::MaxMinGreedy;
pub use ratio_greedy::{RatioGreedy, Seed};

use usep_core::{Instance, Planning};
pub use usep_guard::{CancelToken, Guard, SolveBudget, SolveOutcome, TruncationReason};
pub use usep_trace::{Counter, NoopProbe, Probe, TraceSink, NOOP};

/// The result of a budget-supervised solve: the planning (always
/// constraint-valid, possibly a prefix of the unguarded result) plus
/// the [`SolveOutcome`] tag saying whether the budget cut it short.
#[derive(Debug)]
pub struct GuardedSolve {
    /// The planning built before the guard tripped (or the complete
    /// planning when it never did).
    pub planning: Planning,
    /// Whether the solve ran to its natural end.
    pub outcome: SolveOutcome,
}

/// Reads the final outcome off `guard` and mirrors a truncation into
/// the matching trace counter. Solvers call this once, on exit from
/// their guarded path.
pub(crate) fn finish_guarded(guard: &Guard, probe: &dyn Probe) -> SolveOutcome {
    let outcome = guard.outcome();
    if let Some(reason) = outcome.reason() {
        let counter = match reason {
            TruncationReason::Deadline => Counter::GuardDeadlineTrip,
            TruncationReason::MemoryCeiling => Counter::GuardMemoryTrip,
            TruncationReason::Cancelled => Counter::GuardCancelTrip,
        };
        probe.count(counter, 1);
    }
    outcome
}

/// A USEP planning algorithm: takes an instance, returns a feasible
/// planning.
///
/// [`Solver::solve_guarded`] is the one solving method to implement;
/// [`Solver::solve`] runs it under a guard that never trips and no
/// probe.
pub trait Solver {
    /// Short display name (matches the paper's figure legends).
    fn name(&self) -> &'static str;

    /// Computes a planning under the supervision of `guard`, reporting
    /// counters, spans and histogram observations through `probe`.
    /// Probes observe, they never steer: the planning is the same for
    /// every probe.
    ///
    /// The interruptible solvers ([`RatioGreedy`], [`DeDP`], [`DeDPO`],
    /// [`DeGreedy`]) poll the guard from their hot loops, stop at the
    /// next checkpoint once it trips, and return the best-so-far
    /// **constraint-valid** planning tagged with the outcome. Solvers
    /// whose work is not anytime-shaped (one-shot baselines) ignore the
    /// guard and report [`SolveOutcome::Complete`].
    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve;

    /// Computes a feasible planning for `inst`.
    fn solve(&self, inst: &Instance) -> Planning {
        self.solve_guarded(inst, Guard::none(), &NOOP).planning
    }
}

/// The six algorithms evaluated in the paper's experiments, plus two
/// baselines: the single-event (SEO-style) assignment the paper argues
/// against, and the utility-only greedy that ablates Eq. (2)'s
/// `inc_cost` denominator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Alg. 1 — global ratio-greedy heuristic.
    RatioGreedy,
    /// Alg. 3 — decomposed DP with the literal `μ^r` matrix.
    DeDP,
    /// Alg. 4 — decomposed DP with the `select` array.
    DeDPO,
    /// DeDPO followed by the RatioGreedy augmentation pass.
    DeDPORG,
    /// Two-step framework with the per-user greedy (Alg. 5).
    DeGreedy,
    /// DeGreedy followed by the RatioGreedy augmentation pass.
    DeGreedyRG,
    /// One event per user, by descending utility (SEO-style comparison
    /// baseline; not part of the paper's six).
    SingleEventGreedy,
    /// Multi-event greedy by utility alone — the Eq. (2) ablation
    /// (RatioGreedy without the `inc_cost` denominator).
    UtilityGreedy,
}

impl Algorithm {
    /// The six algorithms of the paper's evaluation, in legend order.
    pub const PAPER_SET: [Algorithm; 6] = [
        Algorithm::RatioGreedy,
        Algorithm::DeDP,
        Algorithm::DeDPO,
        Algorithm::DeDPORG,
        Algorithm::DeGreedy,
        Algorithm::DeGreedyRG,
    ];

    /// The scalable subset used in the paper's Figure 4 (DeDP is excluded
    /// there for its memory footprint).
    pub const SCALABLE_SET: [Algorithm; 5] = [
        Algorithm::RatioGreedy,
        Algorithm::DeDPO,
        Algorithm::DeDPORG,
        Algorithm::DeGreedy,
        Algorithm::DeGreedyRG,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::RatioGreedy => "RatioGreedy",
            Algorithm::DeDP => "DeDP",
            Algorithm::DeDPO => "DeDPO",
            Algorithm::DeDPORG => "DeDPO+RG",
            Algorithm::DeGreedy => "DeGreedy",
            Algorithm::DeGreedyRG => "DeGreedy+RG",
            Algorithm::SingleEventGreedy => "SingleEvent",
            Algorithm::UtilityGreedy => "UtilityGreedy",
        }
    }

    /// Parses a figure-legend name (case-insensitive, `+rg` suffixes
    /// accepted).
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s.to_ascii_lowercase().as_str() {
            "ratiogreedy" | "rg" => Some(Algorithm::RatioGreedy),
            "dedp" => Some(Algorithm::DeDP),
            "dedpo" => Some(Algorithm::DeDPO),
            "dedpo+rg" | "dedporg" => Some(Algorithm::DeDPORG),
            "degreedy" => Some(Algorithm::DeGreedy),
            "degreedy+rg" | "degreedyrg" => Some(Algorithm::DeGreedyRG),
            "singleevent" | "baseline" => Some(Algorithm::SingleEventGreedy),
            "utilitygreedy" => Some(Algorithm::UtilityGreedy),
            _ => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `algorithm` on `inst`.
pub fn solve(algorithm: Algorithm, inst: &Instance) -> Planning {
    solve_guarded(algorithm, inst, Guard::none(), &NOOP).planning
}

/// Runs `algorithm` on `inst`, reporting instrumentation through
/// `probe` (see the `usep-trace` crate). With [`NOOP`] this is exactly
/// [`solve`].
pub fn solve_with_probe(algorithm: Algorithm, inst: &Instance, probe: &dyn Probe) -> Planning {
    solve_guarded(algorithm, inst, Guard::none(), probe).planning
}

/// Runs `algorithm` on `inst` under `guard`, dispatching to the
/// solver's [`Solver::solve_guarded`] implementation. For fallback
/// orchestration on top of this, see [`GuardedSolver`].
pub fn solve_guarded(
    algorithm: Algorithm,
    inst: &Instance,
    guard: &Guard,
    probe: &dyn Probe,
) -> GuardedSolve {
    match algorithm {
        Algorithm::RatioGreedy => RatioGreedy.solve_guarded(inst, guard, probe),
        Algorithm::DeDP => DeDP::new().solve_guarded(inst, guard, probe),
        Algorithm::DeDPO => DeDPO::new().solve_guarded(inst, guard, probe),
        Algorithm::DeDPORG => DeDPO::new().with_augment().solve_guarded(inst, guard, probe),
        Algorithm::DeGreedy => DeGreedy::new().solve_guarded(inst, guard, probe),
        Algorithm::DeGreedyRG => DeGreedy::new().with_augment().solve_guarded(inst, guard, probe),
        Algorithm::SingleEventGreedy => SingleEventGreedy.solve_guarded(inst, guard, probe),
        Algorithm::UtilityGreedy => UtilityGreedy.solve_guarded(inst, guard, probe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_roundtrip_through_parse() {
        for a in Algorithm::PAPER_SET {
            assert_eq!(Algorithm::parse(a.name()), Some(a));
        }
        assert_eq!(Algorithm::parse("baseline"), Some(Algorithm::SingleEventGreedy));
        assert_eq!(Algorithm::parse("nope"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Algorithm::DeDPORG.to_string(), "DeDPO+RG");
    }
}
