//! Single-run measurement: one algorithm, one instance, three metrics.

use crate::alloc::measure_peak;
use crate::timer::time;
use serde::{Deserialize, Serialize};
use usep_algos::{Algorithm, GuardedSolver, SolveBudget};
use usep_core::Instance;
use usep_trace::TraceSink;

/// One measured algorithm run (the three quantities every panel of
/// Figures 2–4 plots, plus the algorithm-counter snapshot from
/// `usep-trace`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Algorithm legend name.
    pub algorithm: String,
    /// Total utility score `Ω(A)`.
    pub omega: f64,
    /// Wall-clock running time in seconds.
    pub seconds: f64,
    /// Peak heap growth during the run, in bytes (0 when the counting
    /// allocator is not registered).
    pub peak_bytes: usize,
    /// Number of event-user assignments in the returned planning.
    pub assignments: usize,
    /// Algorithm counters in registry order, as `(name, value)` pairs
    /// (see `usep_trace::Counter`). Empty when deserialized from results
    /// recorded before counters existed.
    #[serde(default)]
    pub counters: Vec<(String, u64)>,
    /// How the solve ended: `"complete"` or `"truncated:<reason>"`
    /// (see `usep_guard::SolveOutcome::describe`). Empty in records
    /// written before budgets existed — treat as complete.
    #[serde(default)]
    pub outcome: String,
    /// Algorithms abandoned by the degradation chain before the one
    /// whose planning was measured (empty for unguarded runs and
    /// legacy records).
    #[serde(default)]
    pub fallbacks: Vec<String>,
}

/// Runs `algorithm` on `inst`, validating the output planning and
/// capturing Ω, wall-clock time, peak heap growth and the full
/// algorithm-counter snapshot.
///
/// # Panics
/// Panics if the algorithm returns an infeasible planning — that is a
/// bug, and experiments must not silently report numbers from one.
pub fn run_measured(algorithm: Algorithm, inst: &Instance) -> Measurement {
    let sink = TraceSink::new();
    let ((planning, dur), peak) =
        measure_peak(|| time(|| usep_algos::solve_with_probe(algorithm, inst, &sink)));
    planning
        .validate(inst)
        .unwrap_or_else(|e| panic!("{algorithm} returned an infeasible planning: {e}"));
    Measurement {
        algorithm: algorithm.name().to_string(),
        omega: planning.omega(inst),
        seconds: dur.as_secs_f64(),
        peak_bytes: peak,
        assignments: planning.num_assignments(),
        counters: sink.counters().into_iter().map(|(c, v)| (c.name().to_string(), v)).collect(),
        outcome: "complete".to_string(),
        fallbacks: Vec::new(),
    }
}

/// [`run_measured`] under a [`SolveBudget`]: the solve runs through the
/// [`GuardedSolver`] degradation chain, and the measurement records the
/// outcome tag, any fallbacks taken, and — in `algorithm` — the
/// algorithm that actually produced the planning.
///
/// Truncated plannings are still validated: a guard trip must never
/// yield an infeasible result.
pub fn run_measured_guarded(
    algorithm: Algorithm,
    inst: &Instance,
    budget: &SolveBudget,
) -> Measurement {
    let sink = TraceSink::new();
    let solver = GuardedSolver::new(algorithm, budget.clone());
    let ((report, dur), peak) = measure_peak(|| time(|| solver.solve_with_probe(inst, &sink)));
    report
        .planning
        .validate(inst)
        .unwrap_or_else(|e| panic!("{algorithm} returned an infeasible planning: {e}"));
    Measurement {
        algorithm: report.executed.name().to_string(),
        omega: report.planning.omega(inst),
        seconds: dur.as_secs_f64(),
        peak_bytes: peak,
        assignments: report.planning.num_assignments(),
        counters: sink.counters().into_iter().map(|(c, v)| (c.name().to_string(), v)).collect(),
        outcome: report.outcome.describe(),
        fallbacks: report.fallbacks.iter().map(|a| a.name().to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_gen::{generate, SyntheticConfig};

    #[test]
    fn measures_all_algorithms_on_a_tiny_instance() {
        let inst = generate(&SyntheticConfig::tiny(), 5);
        for a in Algorithm::PAPER_SET {
            let m = run_measured(a, &inst);
            assert_eq!(m.algorithm, a.name());
            assert!(m.omega >= 0.0);
            assert!(m.seconds >= 0.0);
            assert_eq!(m.counters.len(), usep_trace::Counter::ALL.len());
            assert!(m.counters.iter().any(|&(_, v)| v > 0), "{a}: all counters zero");
        }
    }

    #[test]
    fn dedp_and_dedpo_agree_on_omega() {
        let inst = generate(&SyntheticConfig::tiny().with_users(20), 9);
        let a = run_measured(Algorithm::DeDP, &inst);
        let b = run_measured(Algorithm::DeDPO, &inst);
        assert!((a.omega - b.omega).abs() < 1e-9);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn serde_roundtrip() {
        let m = Measurement {
            algorithm: "DeDPO".into(),
            omega: 12.5,
            seconds: 0.25,
            peak_bytes: 1024,
            assignments: 30,
            counters: vec![("dp_cell_visit".to_string(), 420)],
            outcome: "truncated:deadline".into(),
            fallbacks: vec!["DeDP".into()],
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: Measurement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        // counter- and outcome-free records from before those fields
        // existed still load
        let legacy = r#"{"algorithm":"DeDPO","omega":1.0,"seconds":0.1,
                         "peak_bytes":0,"assignments":2}"#;
        let old: Measurement = serde_json::from_str(legacy).unwrap();
        assert!(old.counters.is_empty());
        assert!(old.outcome.is_empty());
        assert!(old.fallbacks.is_empty());
    }

    #[test]
    fn guarded_run_records_outcome_and_fallbacks() {
        let inst = generate(&SyntheticConfig::tiny(), 5);
        let unlimited = run_measured_guarded(Algorithm::DeDPO, &inst, &SolveBudget::unlimited());
        assert_eq!(unlimited.outcome, "complete");
        assert!(unlimited.fallbacks.is_empty());

        // a 1-byte ceiling forces DeDPO's DP scratch reservation to fail
        // and the chain to land on DeGreedy+RG
        let tight = SolveBudget::unlimited().with_memory_ceiling(1);
        let m = run_measured_guarded(Algorithm::DeDPO, &inst, &tight);
        assert_eq!(m.algorithm, "DeGreedy+RG");
        assert_eq!(m.fallbacks, vec!["DeDPO".to_string()]);
        assert_eq!(m.outcome, "complete");
    }
}
