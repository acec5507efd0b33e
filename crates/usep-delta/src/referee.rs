//! The differential referee: replays a [`MutationTrace`] through a
//! [`DeltaEngine`] and, after **every** mutation, checks that the
//! incremental planning
//!
//! 1. is constraint-valid ([`Planning::validate`]),
//! 2. lives on an instance that is byte-identical to a from-scratch
//!    rebuild (object arrays, cost matrix, and the amended frozen SoA
//!    view — the patch-layer differential), and
//! 3. achieves Ω within the configured drift bound of a **cold** solve
//!    of the same live instance with the engine's own cold algorithm
//!    ([`DeltaConfig::cold`], DeGreedy+RG by default).
//!
//! On failure the fuzz harness shrinks the trace with a greedy
//! delta-debugging pass ([`minimize_trace`]) that preserves the failure
//! *kind*, and reports the minimized trace as a self-contained JSON
//! repro — the same replayable-seed + greedy-minimizer workflow
//! `usep-chaos` uses for fault schedules.
//!
//! [`Planning::validate`]: usep_core::Planning::validate

use usep_algos::solve;
use usep_core::{FlatInstance, Instance, InstanceBuilder};
use usep_trace::Probe;

use crate::engine::{DeltaConfig, DeltaEngine, RepairKind};
use crate::gentrace::{generate_trace, TraceGenConfig};
use crate::mutation::MutationTrace;

/// What the referee tolerates.
#[derive(Clone, Copy, Debug)]
pub struct RefereeConfig {
    /// Engine tuning used for the incremental side.
    pub delta: DeltaConfig,
    /// Maximum relative Ω shortfall versus the cold solve:
    /// `Ω_inc ≥ (1 − drift_bound) · Ω_cold` must hold after every
    /// mutation.
    pub drift_bound: f64,
    /// Also rebuild the instance from scratch each step and demand
    /// byte-identity (object arrays + frozen view). Quadratic per step;
    /// disable for long traces where only planning quality matters.
    pub check_patching: bool,
}

impl Default for RefereeConfig {
    fn default() -> RefereeConfig {
        RefereeConfig {
            delta: DeltaConfig::default(),
            drift_bound: 0.5,
            check_patching: true,
        }
    }
}

/// Which referee check tripped. The minimizer preserves this, so a
/// shrunken trace still reproduces the *same class* of failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The engine rejected a mutation the generator considered valid.
    Apply,
    /// The incremental planning violated a USEP constraint.
    Constraint,
    /// The patched instance diverged from a from-scratch rebuild.
    Patching,
    /// Ω fell further behind the cold solve than the drift bound allows.
    Drift,
    /// An external per-step check (e.g. the oracle in `usep-oracle`)
    /// reported a violation.
    External,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailureKind::Apply => "apply",
            FailureKind::Constraint => "constraint",
            FailureKind::Patching => "patching",
            FailureKind::Drift => "drift",
            FailureKind::External => "external",
        };
        f.write_str(s)
    }
}

/// A referee failure, pinned to the mutation that triggered it.
#[derive(Clone, Debug)]
pub struct TraceFailure {
    /// Index into `trace.mutations` of the offending mutation.
    pub step: usize,
    /// Which check tripped.
    pub kind: FailureKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for TraceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {} failure: {}", self.step, self.kind, self.detail)
    }
}

/// Aggregates over a clean trace replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceReport {
    /// Mutations replayed.
    pub steps: usize,
    /// Absorbed via bounded repair.
    pub repairs: u64,
    /// Absorbed via full resolve.
    pub fallbacks: u64,
    /// Assignments released across the trace.
    pub evicted: u64,
    /// Assignments added by repair passes.
    pub added: u64,
    /// Final Ω of the incremental planning.
    pub final_omega: f64,
    /// Final Ω of a cold solve of the final instance.
    pub final_omega_cold: f64,
    /// Worst per-step `Ω_inc / Ω_cold` observed (1.0 when cold was 0).
    pub min_omega_ratio: f64,
}

impl TraceReport {
    /// Fraction of mutations absorbed without a full resolve.
    pub fn repair_fraction(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.repairs as f64 / self.steps as f64
        }
    }
}

/// Rebuilds an instance from scratch out of the live one's raw parts —
/// the ground truth the patched instance must match byte-for-byte.
pub fn shadow_rebuild(inst: &Instance) -> Result<Instance, String> {
    let mut b = InstanceBuilder::new();
    for e in inst.events() {
        b.event(e.capacity, e.location, e.time);
    }
    for u in inst.users() {
        b.user(u.location, u.budget);
    }
    let mut mu = Vec::with_capacity(inst.num_events() * inst.num_users());
    for u in inst.user_ids() {
        mu.extend_from_slice(inst.mu_row(u));
    }
    b.utility_matrix(mu);
    b.travel(inst.travel().clone());
    for (v, &f) in inst.fees().iter().enumerate() {
        b.fee(usep_core::EventId(v as u32), f);
    }
    b.build().map_err(|e| format!("shadow rebuild refused: {e:?}"))
}

/// Replays `trace` through a fresh engine, running the three referee
/// checks after every mutation plus an optional external `extra` check
/// (return `Some(detail)` to fail the step — `usep-oracle` hooks its
/// constraint checker in here). Returns per-trace aggregates, or the
/// first failure.
pub fn run_trace(
    trace: &MutationTrace,
    cfg: &RefereeConfig,
    probe: &dyn Probe,
    extra: &dyn Fn(usize, &DeltaEngine) -> Option<String>,
) -> Result<TraceReport, TraceFailure> {
    let mut engine = DeltaEngine::new(trace.instance.clone(), cfg.delta, probe);
    let mut report = TraceReport { min_omega_ratio: 1.0, ..TraceReport::default() };

    for (step, m) in trace.mutations.iter().enumerate() {
        let outcome = engine.apply(m, probe).map_err(|e| TraceFailure {
            step,
            kind: FailureKind::Apply,
            detail: format!("{} rejected: {e}", m.kind()),
        })?;
        report.steps += 1;
        match outcome.kind {
            RepairKind::Repaired => report.repairs += 1,
            RepairKind::Fallback => report.fallbacks += 1,
        }
        report.evicted += outcome.evicted as u64;
        report.added += outcome.added as u64;

        // 1. constraint validity
        if let Err(v) = engine.planning().validate(engine.instance()) {
            return Err(TraceFailure {
                step,
                kind: FailureKind::Constraint,
                detail: format!("after {}: {v}", m.kind()),
            });
        }

        // 2. patched instance ≡ from-scratch rebuild
        let cold_inst;
        let live = if cfg.check_patching {
            let fresh = shadow_rebuild(engine.instance()).map_err(|e| TraceFailure {
                step,
                kind: FailureKind::Patching,
                detail: e,
            })?;
            if *engine.instance() != fresh {
                return Err(TraceFailure {
                    step,
                    kind: FailureKind::Patching,
                    detail: format!("object arrays diverged after {}", m.kind()),
                });
            }
            for i in fresh.event_ids() {
                for j in fresh.event_ids() {
                    if engine.instance().cost_vv(i, j) != fresh.cost_vv(i, j) {
                        return Err(TraceFailure {
                            step,
                            kind: FailureKind::Patching,
                            detail: format!("cost_vv({i}, {j}) diverged after {}", m.kind()),
                        });
                    }
                }
            }
            if *engine.instance().freeze() != FlatInstance::build(&fresh) {
                return Err(TraceFailure {
                    step,
                    kind: FailureKind::Patching,
                    detail: format!("amended frozen view diverged after {}", m.kind()),
                });
            }
            cold_inst = fresh;
            &cold_inst
        } else {
            engine.instance()
        };

        // 3. Ω within drift bound of a cold solve
        let cold = solve(cfg.delta.cold, live);
        let omega_cold = cold.omega(live);
        let omega_inc = engine.omega();
        if omega_cold > 0.0 {
            let ratio = omega_inc / omega_cold;
            if ratio < report.min_omega_ratio {
                report.min_omega_ratio = ratio;
            }
            if omega_inc + 1e-9 < (1.0 - cfg.drift_bound) * omega_cold {
                return Err(TraceFailure {
                    step,
                    kind: FailureKind::Drift,
                    detail: format!(
                        "Ω_inc {omega_inc:.4} < (1 - {:.2}) × Ω_cold {omega_cold:.4} after {}",
                        cfg.drift_bound,
                        m.kind()
                    ),
                });
            }
        }
        if step + 1 == trace.mutations.len() {
            report.final_omega = omega_inc;
            report.final_omega_cold = omega_cold;
        }

        // 4. external check (oracle hook)
        if let Some(detail) = extra(step, &engine) {
            return Err(TraceFailure { step, kind: FailureKind::External, detail });
        }
    }
    Ok(report)
}

/// No external check.
pub fn no_extra(_step: usize, _engine: &DeltaEngine) -> Option<String> {
    None
}

/// Greedy delta-debugging shrink: repeatedly tries to drop chunks of
/// mutations (halving the chunk size down to 1) while `fails` keeps
/// returning true, until a fixpoint. `fails` should pin the failure
/// kind so the shrunken trace reproduces the same bug — dropping an
/// `EventAdd`, for example, turns later mutations on that event into
/// benign `Apply` rejections that must not count as "still failing".
pub fn minimize_trace(trace: &MutationTrace, fails: &dyn Fn(&MutationTrace) -> bool) -> MutationTrace {
    let mut cur = trace.clone();
    loop {
        let mut shrunk = false;
        let mut chunk = (cur.mutations.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < cur.mutations.len() {
                let mut cand = cur.clone();
                let end = (i + chunk).min(cand.mutations.len());
                cand.mutations.drain(i..end);
                if fails(&cand) {
                    cur = cand;
                    shrunk = true;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !shrunk {
            break;
        }
    }
    cur
}

/// Shape of a fuzz campaign.
#[derive(Clone, Copy, Debug)]
pub struct DeltaFuzzConfig {
    /// Traces to run.
    pub traces: usize,
    /// Base seed; trace `i` uses `seed + i`.
    pub seed: u64,
    /// Mutations per trace.
    pub mutations: usize,
    /// Events in each starting instance.
    pub events: usize,
    /// Users in each starting instance.
    pub users: usize,
    /// Referee tolerances.
    pub referee: RefereeConfig,
}

impl Default for DeltaFuzzConfig {
    fn default() -> DeltaFuzzConfig {
        DeltaFuzzConfig {
            traces: 50,
            seed: 0,
            mutations: 40,
            events: 8,
            users: 12,
            referee: RefereeConfig::default(),
        }
    }
}

/// One failing trace, shrunk.
#[derive(Clone, Debug)]
pub struct DeltaFuzzFinding {
    /// Seed of the offending trace.
    pub seed: u64,
    /// The failure as observed on the full trace.
    pub failure: TraceFailure,
    /// The kind-preserving minimized trace (self-contained repro).
    pub minimized: MutationTrace,
}

/// Campaign aggregates.
#[derive(Clone, Debug, Default)]
pub struct DeltaFuzzReport {
    /// Traces replayed.
    pub traces: usize,
    /// Total mutations absorbed across clean traces.
    pub steps: u64,
    /// Bounded repairs across clean traces.
    pub repairs: u64,
    /// Full resolves across clean traces.
    pub fallbacks: u64,
    /// Worst per-step `Ω_inc / Ω_cold` seen anywhere.
    pub min_omega_ratio: f64,
    /// Failures found (empty on a clean campaign).
    pub findings: Vec<DeltaFuzzFinding>,
}

impl DeltaFuzzReport {
    /// Fraction of mutations absorbed without a full resolve.
    pub fn repair_fraction(&self) -> f64 {
        if self.steps == 0 {
            1.0
        } else {
            self.repairs as f64 / self.steps as f64
        }
    }
}

/// Runs `cfg.traces` seeded traces through the referee, minimizing any
/// failure kind-preservingly. `extra` is forwarded to [`run_trace`].
pub fn run_delta_fuzz(
    cfg: &DeltaFuzzConfig,
    probe: &dyn Probe,
    extra: &dyn Fn(usize, &DeltaEngine) -> Option<String>,
) -> DeltaFuzzReport {
    let mut report = DeltaFuzzReport { min_omega_ratio: 1.0, ..DeltaFuzzReport::default() };
    for i in 0..cfg.traces {
        let seed = cfg.seed.wrapping_add(i as u64);
        let trace = generate_trace(&TraceGenConfig {
            seed,
            mutations: cfg.mutations,
            events: cfg.events,
            users: cfg.users,
        });
        report.traces += 1;
        match run_trace(&trace, &cfg.referee, probe, extra) {
            Ok(r) => {
                report.steps += r.steps as u64;
                report.repairs += r.repairs;
                report.fallbacks += r.fallbacks;
                if r.min_omega_ratio < report.min_omega_ratio {
                    report.min_omega_ratio = r.min_omega_ratio;
                }
            }
            Err(failure) => {
                let kind = failure.kind;
                let referee = cfg.referee;
                let minimized = minimize_trace(&trace, &|cand| {
                    matches!(run_trace(cand, &referee, &usep_trace::NOOP, extra),
                             Err(f) if f.kind == kind)
                });
                report.findings.push(DeltaFuzzFinding { seed, failure, minimized });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::Mutation;
    use usep_trace::NOOP;

    #[test]
    fn seeded_traces_replay_cleanly() {
        for seed in 0..6 {
            let trace = generate_trace(&TraceGenConfig {
                seed,
                mutations: 25,
                events: 6,
                users: 8,
            });
            let report = run_trace(&trace, &RefereeConfig::default(), &NOOP, &no_extra)
                .unwrap_or_else(|f| panic!("seed {seed}: {f}"));
            assert_eq!(report.steps, 25);
            assert!(report.min_omega_ratio >= 0.5);
        }
    }

    #[test]
    fn external_check_failures_are_surfaced() {
        let trace =
            generate_trace(&TraceGenConfig { seed: 1, mutations: 5, events: 4, users: 5 });
        let fail_at_3 = |step: usize, _: &DeltaEngine| -> Option<String> {
            (step == 3).then(|| "synthetic".to_string())
        };
        let failure = run_trace(&trace, &RefereeConfig::default(), &NOOP, &fail_at_3).unwrap_err();
        assert_eq!(failure.step, 3);
        assert_eq!(failure.kind, FailureKind::External);
    }

    #[test]
    fn minimizer_shrinks_to_the_triggering_suffix() {
        let trace =
            generate_trace(&TraceGenConfig { seed: 2, mutations: 30, events: 5, users: 6 });
        // synthetic failure: any trace still containing a capacity change
        let fails = |cand: &MutationTrace| {
            cand.mutations.iter().any(|m| matches!(m, Mutation::CapacityChange { .. }))
        };
        assert!(fails(&trace), "seed 2 should roll at least one capacity change");
        let min = minimize_trace(&trace, &fails);
        assert_eq!(min.mutations.len(), 1, "exactly one mutation should survive");
        assert!(matches!(min.mutations[0], Mutation::CapacityChange { .. }));
    }

    #[test]
    fn fuzz_campaign_runs_clean_on_default_tolerances() {
        let cfg = DeltaFuzzConfig { traces: 8, seed: 100, mutations: 20, ..Default::default() };
        let report = run_delta_fuzz(&cfg, &NOOP, &no_extra);
        assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
        assert_eq!(report.steps, 8 * 20);
        assert!(report.repair_fraction() > 0.5);
    }
}
