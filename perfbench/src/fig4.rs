//! `fig4_batch`: the |U| = 5000 point of Fig. 4 at the Table 7 defaults
//! (|V| = 100, mean capacity 50). The five scalable solvers run
//! in-process, round after round over three fixed instances for
//! `--seconds`; the solver layers (`core`, `algos`, `par`) do all the
//! work and `serve` none.
//!
//! Every time here is a CPU-bound solve, scaled to the reference speed
//! (`host.rs`); `goodput_rps` is solves per second of solving.
//!
//! The larger point |V| = 200, mean capacity 200 takes ≈25 s a pass on
//! a 2-core host, so a run could hold one pass only, and single-pass
//! times of one seed spread 14–22% between runs. At this point a round
//! over three instances takes ≈5 s, and the per-solver medians of the
//! round means hold steady from seed to seed.

use crate::common::{median, quantile, Metrics, RunCfg, Scale, Tally, MB};
use crate::solvers::{core_layer_ms, set_solve_metrics, solve_round, solve_rounds_for, trace_round, SOLVERS};
use crate::host::Reference;
use std::time::Duration;
use usep_core::Instance;
use usep_gen::{generate, SyntheticConfig};

/// A batch solve counts toward goodput when it finishes within this.
const LIMIT_MS: f64 = 10_000.0;

/// Instances per round: each solver's time is the mean over them. They
/// come from generator seeds `1..=INSTANCES` on every run, whatever
/// `--seed` says: DeDPO's time varies ±15% between instances of this
/// size, so instances drawn from the workload seed moved its median by
/// 19% (IQR over five seeds) where the bound is 25%.
const INSTANCES: u64 = 3;

fn config(scale: Scale) -> SyntheticConfig {
    match scale {
        Scale::Full => SyntheticConfig::default().with_users(5000),
        Scale::Smoke => SyntheticConfig::default()
            .with_events(30)
            .with_users(400)
            .with_capacity_mean(20),
    }
}

pub fn run(cfg: &RunCfg, e2e: &mut Metrics, layers: &mut Metrics, tally: &mut Tally) {
    // set-up: generate and lower the instances, several times, keep the last
    let gen = config(cfg.scale);
    let mut reference = Reference::new();
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let mut instances: Vec<Instance> = Vec::new();
    for _ in 0..5 {
        let (fresh, wall, scaled) = reference.timed(|| {
            let fresh: Vec<Instance> = (1..=INSTANCES).map(|s| generate(&gen, s)).collect();
            for inst in &fresh {
                inst.freeze();
            }
            fresh
        });
        instances = fresh;
        setups.push(scaled);
        setup_walls.push(wall);
    }
    e2e.set("setup_s", median(&setups));
    layers.set("wall.setup_s", median(&setup_walls));
    let refs: Vec<&Instance> = instances.iter().collect();

    // warm-up: every solver once on one instance, untimed (a run's first
    // RatioGreedy solves ran up to 40% slower than its later ones)
    solve_round(&refs[..1], &mut Reference::new(), tally);

    // the batch: whole rounds over the instances while they fit
    let mut rounds = Vec::new();
    solve_rounds_for(&refs, Duration::from_secs(cfg.seconds), &mut rounds, &mut reference, tally);

    set_solve_metrics(&rounds, e2e, layers);
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.secs.map(|s| s * 1e3)).collect();
    let good = rounds
        .iter()
        .flat_map(|r| (0..SOLVERS.len()).map(move |k| r.ok[k] && r.secs[k] * 1e3 <= LIMIT_MS))
        .filter(|&g| g)
        .count();
    let busy: f64 = latencies.iter().sum::<f64>() / 1e3;
    let walls: Vec<f64> = rounds.iter().flat_map(|r| r.wall.map(|s| s * 1e3)).collect();
    e2e.set("req_p50_ms", quantile(&latencies, 0.5));
    e2e.set("req_p90_ms", quantile(&latencies, 0.9));
    layers.set("wall.req_p50_ms", quantile(&walls, 0.5));
    layers.set("wall.req_p90_ms", quantile(&walls, 0.9));
    layers.set("host.kernel_ms", reference.median_ms());
    e2e.set("goodput_rps", good as f64 / busy);
    e2e.set("omega_sum", rounds[0].omega.iter().sum());
    let peaks: Vec<f64> = rounds.iter().map(|r| r.peak_bytes as f64 / MB).collect();
    e2e.set("peak_heap_mb", median(&peaks));
    // no mutations: nothing fell back (DeltaStats::repair_fraction's convention)
    e2e.set("repair_frac", 1.0);

    if cfg.trace {
        trace_round(&instances[0], 3, tally, layers);
        if let Some((freeze, validate)) = tally.op(core_layer_ms(&generate(&gen, 1))) {
            layers.set("core.freeze_ms", freeze);
            layers.set("core.validate_ms", validate);
        }
    }
}
