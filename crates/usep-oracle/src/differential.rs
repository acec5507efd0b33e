//! The differential engine.
//!
//! Runs every production code path that emits a planning — the six
//! paper solvers, the `GuardedSolver` degradation chain, and the serve
//! retry path — on one instance, audits each planning with the
//! independent oracle, cross-checks each reported `Ω` against the
//! oracle's recomputation, and audits solution quality:
//!
//! * on **small** instances (≤ [`EXACT_EVENT_CAP`] events,
//!   ≤ [`EXACT_USER_CAP`] users) the exhaustive optimum is computed and
//!   every heuristic must satisfy `Ω ≤ OPT`, with DeDP/DeDPO further
//!   held to Theorem 3's `Ω ≥ ½ · OPT`;
//! * on larger instances the capacity-relaxed upper bound substitutes
//!   for `OPT` — but only in the sound direction (`Ω ≤ bound`). The
//!   ratio direction is **not** asserted against the bound: Theorem 3
//!   guarantees `Ω ≥ ½ · OPT`, and the bound only promises
//!   `bound ≥ OPT`, so `Ω ≥ ½ · bound` does not follow.

use crate::oracle::check_planning_with_omega;
use crate::report::{Finding, Violation};
use usep_algos::{bounds, exact, solve, Algorithm, GuardedSolver, SolveBudget};
use usep_core::{Instance, Planning};
use usep_serve::{solve_with_retry, SolveLimits, SolveRequest};
use usep_trace::Probe;

/// Largest event count for which the exhaustive optimum is computed.
pub const EXACT_EVENT_CAP: usize = 8;
/// Largest user count for which the exhaustive optimum is computed.
pub const EXACT_USER_CAP: usize = 6;

/// Absolute slack for float comparisons of `Ω` aggregates.
const EPS: f64 = 1e-6;

/// Whether the exhaustive reference solver is affordable for `inst`.
pub fn exact_applies(inst: &Instance) -> bool {
    inst.num_events() <= EXACT_EVENT_CAP && inst.num_users() <= EXACT_USER_CAP
}

fn audit(
    inst: &Instance,
    planning: &Planning,
    reported_omega: f64,
    label: &str,
    probe: &dyn Probe,
    findings: &mut Vec<Finding>,
) -> f64 {
    let report = check_planning_with_omega(inst, planning, reported_omega, probe);
    findings.extend(
        report
            .violations
            .iter()
            .cloned()
            .map(|violation| Finding { algorithm: label.to_string(), violation }),
    );
    report.omega
}

/// Runs every solver and service path on `inst` and returns all
/// violations found. An empty vector means the instance is clean.
pub fn verify_instance(inst: &Instance, probe: &dyn Probe) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut omegas: Vec<(Algorithm, f64)> = Vec::new();

    for algorithm in Algorithm::PAPER_SET {
        let planning = solve(algorithm, inst);
        let omega =
            audit(inst, &planning, planning.omega(inst), algorithm.name(), probe, &mut findings);
        omegas.push((algorithm, omega));
    }

    // the degradation chain under an unlimited budget must also emit a
    // clean planning (exercises the guarded solve path end to end)
    let guarded = GuardedSolver::new(Algorithm::DeDP, SolveBudget::unlimited()).solve(inst);
    audit(
        inst,
        &guarded.planning,
        guarded.planning.omega(inst),
        "Guarded(DeDP)",
        probe,
        &mut findings,
    );

    // the serve retry path, in-process (no socket): the journaled
    // planning and the response's Ω must both survive the oracle
    let request = SolveRequest {
        id: "oracle-differential".to_string(),
        instance: std::sync::Arc::new(inst.clone()),
        algorithm: None,
        timeout_ms: None,
        mem_budget_mb: None,
        city: None,
    };
    let response = solve_with_retry(&request, &SolveLimits::default(), probe);
    match &response.planning {
        Some(planning) => {
            audit(inst, planning, response.omega, "serve", probe, &mut findings);
        }
        None => findings.push(Finding {
            algorithm: "serve".to_string(),
            violation: Violation::MetamorphicBroken {
                relation: "serve_returns_planning".to_string(),
                detail: format!("serve path returned no planning: {:?}", response.status),
            },
        }),
    }

    if exact_applies(inst) {
        let (_, optimal) = exact::optimal_planning(inst);
        for &(algorithm, omega) in &omegas {
            if omega > optimal + EPS {
                findings.push(Finding {
                    algorithm: algorithm.name().to_string(),
                    violation: Violation::AboveOptimal {
                        algorithm: algorithm.name().to_string(),
                        omega,
                        optimal,
                    },
                });
            }
            if matches!(algorithm, Algorithm::DeDP | Algorithm::DeDPO)
                && omega < 0.5 * optimal - EPS
            {
                findings.push(Finding {
                    algorithm: algorithm.name().to_string(),
                    violation: Violation::RatioBelowHalf {
                        algorithm: algorithm.name().to_string(),
                        omega,
                        optimal,
                    },
                });
            }
        }
    } else {
        let bound = bounds::capacity_relaxed_bound(inst);
        for &(algorithm, omega) in &omegas {
            if omega > bound + EPS {
                findings.push(Finding {
                    algorithm: algorithm.name().to_string(),
                    violation: Violation::BoundExceeded {
                        algorithm: algorithm.name().to_string(),
                        omega,
                        bound,
                    },
                });
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_gen::{generate, SyntheticConfig};
    use usep_trace::{Counter, TraceSink, NOOP};

    #[test]
    fn small_instances_verify_clean_with_exact_audit() {
        let cfg = SyntheticConfig::tiny().with_events(6).with_users(4).with_capacity_mean(2);
        for seed in 0..5 {
            let inst = generate(&cfg, seed);
            assert!(exact_applies(&inst));
            let findings = verify_instance(&inst, &NOOP);
            assert!(findings.is_empty(), "seed {seed}: {findings:?}");
        }
    }

    #[test]
    fn medium_instances_verify_clean_with_bound_audit() {
        let cfg = SyntheticConfig::tiny().with_events(12).with_users(20).with_capacity_mean(4);
        let inst = generate(&cfg, 3);
        assert!(!exact_applies(&inst));
        let findings = verify_instance(&inst, &NOOP);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn every_path_is_oracle_checked() {
        let cfg = SyntheticConfig::tiny().with_events(5).with_users(4).with_capacity_mean(2);
        let inst = generate(&cfg, 1);
        let sink = TraceSink::new();
        let findings = verify_instance(&inst, &sink);
        assert!(findings.is_empty(), "{findings:?}");
        // six solvers + guarded + serve = 8 oracle checks
        assert_eq!(sink.counter(Counter::OracleCheck), 8);
        assert_eq!(sink.counter(Counter::OracleViolation), 0);
    }
}
