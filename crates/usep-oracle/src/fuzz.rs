//! Seeded differential fuzzing.
//!
//! Generates a deterministic stream of synthetic instances across four
//! size classes (three small enough for the exhaustive audit, one
//! medium under the relaxation bound), runs the differential engine on
//! every instance and the metamorphic suite on every
//! [`FuzzConfig::metamorphic_every`]-th, and — on the first violation —
//! greedily minimizes the offending instance to a repro JSON.
//!
//! Everything is a pure function of [`FuzzConfig::seed`], so a CI
//! failure replays locally with the same `--seed`.

use crate::differential::verify_instance;
use crate::metamorphic::run_metamorphic;
use crate::minimize::minimize;
use crate::report::Finding;
use usep_gen::{generate, SyntheticConfig};
use usep_trace::{Probe, NOOP};

/// What to fuzz and how hard.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// How many instances to generate and verify.
    pub count: u64,
    /// Master seed; every instance seed derives from it.
    pub seed: u64,
    /// Run the (much more expensive) metamorphic suite on every n-th
    /// instance; `0` disables it.
    pub metamorphic_every: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig { count: 100, seed: 42, metamorphic_every: 5 }
    }
}

/// One violation, tagged with the instance seed that produced it.
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    /// Seed passed to [`generate`] for the offending instance.
    pub instance_seed: u64,
    /// Index of the instance in the fuzz stream.
    pub index: u64,
    /// The violation itself.
    pub finding: Finding,
}

/// Outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Instances generated and verified.
    pub instances: u64,
    /// Instances that additionally went through the metamorphic suite.
    pub metamorphic_runs: u64,
    /// Every violation found, in discovery order.
    pub findings: Vec<FuzzFinding>,
    /// Minimized repro of the *first* violating instance, as JSON
    /// (deserializable back into an [`usep_core::Instance`]).
    pub repro: Option<String>,
}

impl FuzzReport {
    /// Whether the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// SplitMix64 — decorrelates per-instance seeds from the master seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generator configuration for the `i`-th instance of the stream.
///
/// Classes 0–2 stay within the exhaustive audit's size caps; class 3 is
/// audited against the capacity-relaxed bound instead. Conflict ratio
/// cycles so overlapping-event instances are always represented.
pub fn stream_config(i: u64) -> SyntheticConfig {
    let cfg = match i % 4 {
        0 => SyntheticConfig::tiny().with_events(4).with_users(3).with_capacity_mean(2),
        1 => SyntheticConfig::tiny().with_events(6).with_users(4).with_capacity_mean(2),
        2 => SyntheticConfig::tiny().with_events(8).with_users(6).with_capacity_mean(3),
        _ => SyntheticConfig::tiny().with_events(12).with_users(20).with_capacity_mean(4),
    };
    match (i / 4) % 3 {
        0 => cfg,
        1 => cfg.with_conflict_ratio(0.5),
        _ => cfg.with_conflict_ratio(0.9),
    }
}

/// Runs the fuzz campaign described by `cfg`.
pub fn run_fuzz(cfg: &FuzzConfig, probe: &dyn Probe) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.count {
        let instance_seed = mix(cfg.seed ^ i);
        let inst = generate(&stream_config(i), instance_seed);
        let mut findings = verify_instance(&inst, probe);
        if cfg.metamorphic_every > 0 && i % cfg.metamorphic_every == 0 {
            findings.extend(run_metamorphic(&inst, instance_seed, probe));
            report.metamorphic_runs += 1;
        }
        report.instances += 1;
        if !findings.is_empty() && report.repro.is_none() {
            // shrink the first failure to a minimal repro; the predicate
            // re-runs the full differential check, so the repro fails for
            // the same class of reason the original did
            let minimal = minimize(&inst, |c| !verify_instance(c, &NOOP).is_empty(), probe);
            report.repro = serde_json::to_string(&minimal).ok();
        }
        report
            .findings
            .extend(findings.into_iter().map(|finding| FuzzFinding {
                instance_seed,
                index: i,
                finding,
            }));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_trace::{Counter, TraceSink};

    #[test]
    fn seeded_fuzz_run_is_clean_and_deterministic() {
        let cfg = FuzzConfig { count: 12, seed: 42, metamorphic_every: 6 };
        let a = run_fuzz(&cfg, &NOOP);
        assert!(a.is_clean(), "{:?}", a.findings);
        assert_eq!(a.instances, 12);
        assert_eq!(a.metamorphic_runs, 2);
        let b = run_fuzz(&cfg, &NOOP);
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn fuzz_emits_oracle_counters() {
        let sink = TraceSink::new();
        let cfg = FuzzConfig { count: 4, seed: 7, metamorphic_every: 0 };
        let report = run_fuzz(&cfg, &sink);
        assert!(report.is_clean(), "{:?}", report.findings);
        // 8 checked paths per instance, 4 instances
        assert_eq!(sink.counter(Counter::OracleCheck), 32);
        assert_eq!(sink.counter(Counter::OracleViolation), 0);
    }

    #[test]
    fn stream_covers_all_size_classes_and_conflict_ratios() {
        let sizes: Vec<(usize, usize)> = (0..4)
            .map(|i| {
                let inst = generate(&stream_config(i), mix(1 ^ i));
                (inst.num_events(), inst.num_users())
            })
            .collect();
        assert_eq!(sizes, vec![(4, 3), (6, 4), (8, 6), (12, 20)]);
    }
}
