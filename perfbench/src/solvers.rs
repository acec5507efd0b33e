//! The five scalable solvers (Fig. 4's set), run in-process through
//! `GuardedSolver` with an unlimited budget, as `usep solve` does.
//!
//! Every workload times one or more rounds of them untraced for the
//! `solve_s.*` metrics; the traced run adds [`trace_round`], which
//! re-runs each solver with a `TraceSink` and times the solver-side
//! layers (counters, +RG pass, peak heap, thread scaling) from outside.

use crate::common::{median, ms, nproc, Metrics, Tally, MB};
use crate::host::{self, Reference};
use std::time::{Duration, Instant};
use usep_algos::{
    augment_with_ratio_greedy, Algorithm, Counter, GuardedReport, GuardedSolver, Probe,
    SolveBudget, TraceSink, NOOP,
};
use usep_core::Instance;
use usep_gen::{generate_city, CityConfig};

/// Fig. 4's scalable solvers with their metric-name stems.
pub const SOLVERS: [(Algorithm, &str); 5] = [
    (Algorithm::RatioGreedy, "ratio_greedy"),
    (Algorithm::DeDPO, "dedpo"),
    (Algorithm::DeDPORG, "dedpo_rg"),
    (Algorithm::DeGreedy, "degreedy"),
    (Algorithm::DeGreedyRG, "degreedy_rg"),
];

/// The Auckland-size solver suite the serve workloads time `solve_s.*`
/// on: Table-6 Auckland instances from generator seeds `1..=n`, the same
/// on every run (DeDPO's time varies several-fold between instances, so
/// a seeded suite of 16 still moved its mean by 15% from seed to seed).
pub fn auckland_suite(n: usize) -> Vec<Instance> {
    (1..=n as u64).map(|s| generate_city(&CityConfig::auckland(), s)).collect()
}

/// One solve through `GuardedSolver`, unlimited budget; wall seconds.
pub fn timed_solve(inst: &Instance, alg: Algorithm, probe: &dyn Probe) -> (GuardedReport, f64) {
    let started = Instant::now();
    let report = GuardedSolver::new(alg, SolveBudget::unlimited()).solve_with_probe(inst, probe);
    (report, started.elapsed().as_secs_f64())
}

/// The oracle's verdict on a solve: its Ω when the solve completed and
/// the planning passes the independent constraint check with a matching Ω.
pub fn verify(inst: &Instance, report: &GuardedReport) -> Result<f64, String> {
    let name = report.requested.name();
    if !report.outcome.is_complete() {
        return Err(format!("{name}: outcome {:?}", report.outcome));
    }
    check_planning(inst, &report.planning).map_err(|e| format!("{name}: {e}"))
}

/// Runs `usep_oracle::check_planning` and cross-checks Ω.
pub fn check_planning(inst: &Instance, planning: &usep_core::Planning) -> Result<f64, String> {
    let verdict = usep_oracle::check_planning(inst, planning, &NOOP);
    if let Some(v) = verdict.violations.first() {
        return Err(format!(
            "oracle: {} violation(s), first {v:?}",
            verdict.violations.len()
        ));
    }
    let omega = planning.omega(inst);
    if (omega - verdict.omega).abs() > 1e-6 * omega.abs().max(1.0) {
        return Err(format!("oracle: Ω {omega} but recomputed {}", verdict.omega));
    }
    Ok(omega)
}

/// Per solver, in [`SOLVERS`] order: mean untraced seconds over a set
/// of instances, scaled to the reference speed (`secs`) and as measured
/// (`wall`), summed Ω, and whether every planning passed; and the
/// round's heap high-water mark above its starting point.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub secs: [f64; 5],
    pub wall: [f64; 5],
    pub omega: [f64; 5],
    pub ok: [bool; 5],
    pub peak_bytes: usize,
}

/// Solves every instance once with each solver, untraced, checking
/// every planning; each solver's batch is timed beside the host-speed
/// kernel.
pub fn solve_round(instances: &[&Instance], reference: &mut Reference, tally: &mut Tally) -> Round {
    let mut round = Round { ok: [true; 5], ..Round::default() };
    let ((), peak) = usep_metrics::alloc::measure_peak(|| {
        for (k, (alg, _)) in SOLVERS.iter().enumerate() {
            let before = reference.sample_ms();
            for inst in instances {
                let (report, secs) = timed_solve(inst, *alg, &NOOP);
                round.wall[k] += secs / instances.len() as f64;
                match tally.op(verify(inst, &report)) {
                    Some(omega) => round.omega[k] += omega,
                    None => round.ok[k] = false,
                }
            }
            let kernel_ms = (before + reference.sample_ms()) / 2.0;
            round.secs[k] = host::scale(round.wall[k], kernel_ms);
        }
    });
    round.peak_bytes = peak;
    round
}

/// Appends rounds of [`solve_round`] over `instances` to `rounds` for
/// about `budget` (at least one round; none starts that would end past
/// it), failing the run if a repeat changes any Ω: the solvers are
/// deterministic, so the same inputs must give the same plannings.
pub fn solve_rounds_for(
    instances: &[&Instance],
    budget: Duration,
    rounds: &mut Vec<Round>,
    reference: &mut Reference,
    tally: &mut Tally,
) {
    let started = Instant::now();
    loop {
        let round_started = Instant::now();
        let round = solve_round(instances, reference, tally);
        if let Some(first) = rounds.first() {
            tally.check(check_repeat(first, &round));
        }
        rounds.push(round);
        if started.elapsed() + round_started.elapsed() > budget {
            break;
        }
    }
}

/// A repeated round must reproduce the first round's Ω, solver by solver.
fn check_repeat(first: &Round, again: &Round) -> Result<(), String> {
    match SOLVERS.iter().enumerate().find(|&(k, _)| first.omega[k] != again.omega[k]) {
        None => Ok(()),
        Some((k, (_, stem))) => Err(format!(
            "{stem}: a repeated solve gave Ω {} after {}",
            again.omega[k], first.omega[k]
        )),
    }
}

/// Sets `solve_s.*` to the per-solver median over `rounds`, and the
/// unscaled medians to `wall.solve_s.*` among the layers.
pub fn set_solve_metrics(rounds: &[Round], e2e: &mut Metrics, layers: &mut Metrics) {
    for (k, (_, stem)) in SOLVERS.iter().enumerate() {
        let secs: Vec<f64> = rounds.iter().map(|r| r.secs[k]).collect();
        let wall: Vec<f64> = rounds.iter().map(|r| r.wall[k]).collect();
        e2e.set(&format!("solve_s.{stem}"), median(&secs));
        layers.set(&format!("wall.solve_s.{stem}"), median(&wall));
    }
}

/// The traced solver pass on `inst`, `reps` times: an untraced round,
/// then each solver again with a `TraceSink` and its peak heap. After
/// that the +RG pass timed on its own, RatioGreedy at one thread, and
/// the tracing overhead (per-solver medians, traced against untraced).
pub fn trace_round(inst: &Instance, reps: usize, tally: &mut Tally, layers: &mut Metrics) {
    let mut reference = Reference::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        untraced.push(solve_round(&[inst], &mut reference, tally));
        traced.push(traced_round(inst, &untraced[0], &mut reference, tally, layers));
    }
    let per_solver = |rounds: &[Round]| -> [f64; 5] {
        std::array::from_fn(|k| median(&rounds.iter().map(|r| r.secs[k]).collect::<Vec<_>>()))
    };
    let (base, with_sink) = (per_solver(&untraced), per_solver(&traced));
    layers.set(
        "trace.overhead_frac",
        with_sink.iter().sum::<f64>() / base.iter().sum::<f64>() - 1.0,
    );

    // thread scaling: RatioGreedy at 1 thread against the untraced
    // nproc-thread solve; with one core there is nothing to compare
    let threads = nproc();
    if threads < 2 {
        layers.set_null(
            "par.speedup.ratio_greedy",
            format!("available_parallelism is {threads}: no parallel hardware to scale onto"),
        );
    } else {
        usep_par::set_threads(1);
        let (_, _, one) = reference.timed(|| timed_solve(inst, Algorithm::RatioGreedy, &NOOP));
        usep_par::set_threads(0);
        layers.set("par.speedup.ratio_greedy", one / base[0]);
    }
}

/// One traced round: counters, peak heap and the +RG pass alone; checks
/// each planning against the untraced `baseline`.
fn traced_round(
    inst: &Instance,
    baseline: &Round,
    reference: &mut Reference,
    tally: &mut Tally,
    layers: &mut Metrics,
) -> Round {
    let mut round = Round::default();
    let mut bases = Vec::new();
    for (k, (alg, stem)) in SOLVERS.iter().enumerate() {
        let sink = TraceSink::new();
        let before = reference.sample_ms();
        let ((report, secs), peak) =
            usep_metrics::alloc::measure_peak(|| timed_solve(inst, *alg, &sink));
        round.secs[k] = host::scale(secs, (before + reference.sample_ms()) / 2.0);
        layers.set(&format!("algos.{stem}.peak_mb"), peak as f64 / MB);
        if let Some(omega) = tally.op(verify(inst, &report)) {
            // probes observe, they never steer
            if omega != baseline.omega[k] {
                tally.fail(format!(
                    "{stem}: traced Ω {omega} differs from untraced Ω {}",
                    baseline.omega[k]
                ));
            }
        }
        let c = |counter| sink.counter(counter) as f64;
        match alg {
            Algorithm::RatioGreedy => {
                let pops = c(Counter::HeapPop);
                layers.set("algos.ratio_greedy.heap_pops", pops);
                layers.set(
                    "algos.ratio_greedy.stale_pop_frac",
                    c(Counter::HeapPopStale) / pops.max(1.0),
                );
                layers.set(
                    "algos.ratio_greedy.refreshes",
                    c(Counter::CandidateRefreshEvent) + c(Counter::CandidateRefreshUser),
                );
                layers.set("algos.ratio_greedy.budget_rejects", c(Counter::BudgetReject));
                layers.set("algos.ratio_greedy.capacity_rejects", c(Counter::CapacityReject));
                layers.set("par.sections.ratio_greedy", c(Counter::ParSection));
            }
            Algorithm::DeDPO => {
                let (visited, pruned) = (c(Counter::DpCellVisit), c(Counter::DpCellPruned));
                layers.set("algos.dedpo.dp_cells", visited);
                layers.set("algos.dedpo.dp_pruned_frac", pruned / (visited + pruned).max(1.0));
                bases.push(("dedpo", report.planning));
            }
            Algorithm::DeGreedy => bases.push(("degreedy", report.planning)),
            _ => {}
        }
    }

    // the +RG pass alone, on the base planning it augments
    for (stem, mut planning) in bases {
        let started = Instant::now();
        augment_with_ratio_greedy(inst, &mut planning);
        layers.set(&format!("algos.augment_ms.{stem}"), ms(started.elapsed()));
    }
    round
}

/// `(freeze_ms, validate_ms)` of the `usep-core` admission steps, timed
/// on `fresh`, an instance whose flat view was never built.
pub fn core_layer_ms(fresh: &Instance) -> Result<(f64, f64), String> {
    let started = Instant::now();
    fresh.validate().map_err(|e| format!("validate: {e}"))?;
    let validate = ms(started.elapsed());
    let started = Instant::now();
    fresh.freeze();
    Ok((ms(started.elapsed()), validate))
}
