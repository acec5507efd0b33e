//! Multi-seed ensemble evaluation.
//!
//! The paper plots one run per configuration; instance noise is left
//! unquantified. This module runs an algorithm over many seeds of the
//! same configuration — in parallel over the `usep-par` fork-join pool,
//! since Ω is timing-independent — and reports mean/std/min/max, giving
//! the experiment tables error bars.

use serde::{Deserialize, Serialize};
use usep_algos::Algorithm;
use usep_core::Instance;

/// Summary statistics of Ω over an ensemble of seeds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ensemble {
    /// Algorithm legend name.
    pub algorithm: String,
    /// Number of seeds evaluated.
    pub runs: usize,
    /// Mean Ω.
    pub mean: f64,
    /// Sample standard deviation of Ω (0 for a single run).
    pub std: f64,
    /// Smallest Ω observed.
    pub min: f64,
    /// Largest Ω observed.
    pub max: f64,
}

/// Evaluates `algorithm` on `make(seed)` for every seed, spreading the
/// independent runs over `threads` worker threads. Every planning is
/// validated before its Ω is admitted.
///
/// # Panics
/// Panics if `seeds` is empty, `threads` is zero, or any solver output
/// is infeasible (a bug).
pub fn evaluate<F>(algorithm: Algorithm, seeds: &[u64], threads: usize, make: F) -> Ensemble
where
    F: Fn(u64) -> Instance + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    assert!(threads > 0, "need at least one thread");
    let omegas: Vec<f64> = usep_par::par_map(threads, seeds, |_, &seed| {
        let inst = make(seed);
        let plan = usep_algos::solve(algorithm, &inst);
        plan.validate(&inst)
            .unwrap_or_else(|e| panic!("{algorithm} infeasible on seed {seed}: {e}"));
        plan.omega(&inst)
    });

    let n = omegas.len() as f64;
    let mean = omegas.iter().sum::<f64>() / n;
    let var = if omegas.len() > 1 {
        omegas.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    Ensemble {
        algorithm: algorithm.name().to_string(),
        runs: omegas.len(),
        mean,
        std: var.sqrt(),
        min: omegas.iter().cloned().fold(f64::INFINITY, f64::min),
        max: omegas.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_gen::{generate, SyntheticConfig};

    fn mk(seed: u64) -> Instance {
        generate(&SyntheticConfig::tiny().with_users(15), seed)
    }

    #[test]
    fn ensemble_statistics_are_consistent() {
        let seeds: Vec<u64> = (0..8).collect();
        let e = evaluate(Algorithm::DeGreedy, &seeds, 4, mk);
        assert_eq!(e.runs, 8);
        assert!(e.min <= e.mean && e.mean <= e.max);
        assert!(e.std >= 0.0);
        assert_eq!(e.algorithm, "DeGreedy");
    }

    #[test]
    fn parallel_matches_serial() {
        let seeds: Vec<u64> = (0..6).collect();
        let par = evaluate(Algorithm::DeDPO, &seeds, 3, mk);
        let ser = evaluate(Algorithm::DeDPO, &seeds, 1, mk);
        assert_eq!(par, ser, "thread count must not affect results");
    }

    #[test]
    fn single_seed_has_zero_std() {
        let e = evaluate(Algorithm::RatioGreedy, &[7], 2, mk);
        assert_eq!(e.runs, 1);
        assert_eq!(e.std, 0.0);
        assert_eq!(e.min, e.max);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let _ = evaluate(Algorithm::DeGreedy, &[], 2, mk);
    }
}
