//! Core hot-path microbenchmarks: the frozen SoA view
//! (`Instance::freeze`) against naive reference kernels that read the
//! construction model (`Instance`) directly.
//!
//! Times the three inner-loop primitives every solver leans on, each
//! through the flat view and through a reference kernel that lives only
//! in this bench:
//!
//! * **feasibility_check** — `insertion_point` against populated
//!   schedules: an interval scan over `Instance::event(v).time`
//!   (reference) vs conflict-bitmask word probes (flat);
//! * **inc_cost** — Eq. (3) insertion deltas: composed from
//!   `Instance::cost_to_event` / `cost_vv` / `cost_from_event`, which
//!   derive Manhattan-plus-fee costs on the fly (reference), vs
//!   precomputed contiguous cost rows (flat);
//! * **mu_row_sweep** — the Lemma-1-prefiltered candidate sweep over
//!   `μ`-rows, the per-user setup loop of DeDP/DeDPO/DeGreedy, over
//!   `Instance::mu_row` / `round_trip` (reference) vs the flat rows.
//!
//! Each section runs one shared loop with the two accessors plugged in,
//! and both sides must return the same value (asserted up front), so the
//! comparison measures the data layout, not differing loops. Besides the
//! usual criterion output, the run exports a machine-readable summary
//! (median ns per section per side, the reference-over-flat speedup, and
//! the host's hardware thread count) to `BENCH_core.json` at the
//! workspace root — path overridable via the `BENCH_CORE_JSON`
//! environment variable — so CI can track the hot-path trajectory
//! across commits.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use usep_bench::BENCH_USERS;
use usep_core::{Cost, EventId, FlatInstance, Instance, Schedule, UserId};
use usep_gen::{generate, SyntheticConfig};

fn bench_instance() -> Instance {
    let cfg = SyntheticConfig::default()
        .with_events(50)
        .with_users(BENCH_USERS)
        .with_conflict_ratio(0.5);
    generate(&cfg, 2015)
}

/// One greedily-filled feasible schedule per user — the realistic
/// mid-solve occupancy the feasibility and inc-cost probes run against.
fn filled_schedules(inst: &Instance) -> Vec<Vec<EventId>> {
    let flat = inst.freeze();
    (0..inst.num_users() as u32)
        .map(|u| {
            let mut s = Schedule::new();
            for v in inst.event_ids() {
                let _ = s.try_insert(&flat, UserId(u), v);
            }
            s.events().to_vec()
        })
        .collect()
}

/// Reference time check: the interval scan over the events' stored
/// `TimeInterval`s. `None` for a duplicate or an overlap, else the
/// length of the prefix of events preceding `v`.
fn reference_insertion_point(inst: &Instance, events: &[EventId], v: EventId) -> Option<usize> {
    if events.contains(&v) {
        return None;
    }
    let t = inst.event(v).time;
    let pos = events.iter().take_while(|&&m| inst.event(m).time.precedes(t)).count();
    if events.get(pos).is_some_and(|&next| !t.precedes(inst.event(next).time)) {
        return None;
    }
    Some(pos)
}

/// Reference Eq. (3): the insertion delta composed from the instance's
/// on-the-fly leg costs.
fn reference_inc_cost(inst: &Instance, events: &[EventId], u: UserId, v: EventId) -> Cost {
    let Some(pos) = reference_insertion_point(inst, events, v) else {
        return Cost::INFINITE;
    };
    let (added, removed) = match (pos.checked_sub(1).map(|p| events[p]), events.get(pos)) {
        (None, None) => return inst.round_trip(u, v),
        (None, Some(&next)) => {
            (inst.cost_to_event(u, v).add(inst.cost_vv(v, next)), inst.cost_to_event(u, next))
        }
        (Some(prev), None) => {
            (inst.cost_vv(prev, v).add(inst.cost_from_event(v, u)), inst.cost_from_event(prev, u))
        }
        (Some(prev), Some(&next)) => {
            (inst.cost_vv(prev, v).add(inst.cost_vv(v, next)), inst.cost_vv(prev, next))
        }
    };
    if added.is_infinite() {
        Cost::INFINITE
    } else {
        added.sub(removed)
    }
}

/// Time-feasibility probe of every event against every user's
/// schedule.
fn feasibility(
    nv: usize,
    schedules: &[Vec<EventId>],
    insertion_point: impl Fn(&[EventId], EventId) -> Option<usize>,
) -> u64 {
    let mut feasible = 0u64;
    for events in schedules {
        for v in 0..nv as u32 {
            if insertion_point(events, EventId(v)).is_some() {
                feasible += 1;
            }
        }
    }
    feasible
}

/// Eq. (3) insertion deltas for every (user, event) pair against the
/// user's schedule.
fn inc_cost(
    nv: usize,
    schedules: &[Vec<EventId>],
    inc_cost: impl Fn(&[EventId], UserId, EventId) -> Cost,
) -> u64 {
    let mut acc = 0u64;
    for (u, events) in schedules.iter().enumerate() {
        let u = UserId(u as u32);
        for v in 0..nv as u32 {
            if let Some(c) = inc_cost(events, u, EventId(v)).finite_value() {
                acc = acc.wrapping_add(u64::from(c));
            }
        }
    }
    acc
}

/// The per-user candidate sweep (positive utility + Lemma-1 budget
/// prefilter) that opens every decomposed solver's user loop, given a
/// user's μ-row, round-trip costs and budget.
fn mu_row_sweep<'a>(
    nu: usize,
    mu_row: impl Fn(UserId) -> &'a [f32],
    round_trip: impl Fn(UserId, EventId) -> Cost,
    budget: impl Fn(UserId) -> Cost,
) -> f64 {
    let mut total = 0.0;
    for u in 0..nu as u32 {
        let u = UserId(u);
        let budget = budget(u);
        for (v, &m) in mu_row(u).iter().enumerate() {
            if m > 0.0 && round_trip(u, EventId(v as u32)) <= budget {
                total += f64::from(m);
            }
        }
    }
    total
}

/// The three sections as (name, reference run, flat run) triples over
/// one instance; both closures return the same value — asserted once up
/// front — so the timed loops are interchangeable.
type Section<'a> = (&'static str, Box<dyn Fn() -> f64 + 'a>, Box<dyn Fn() -> f64 + 'a>);

fn sections<'a>(
    inst: &'a Instance,
    flat: &'a FlatInstance,
    schedules: &'a [Vec<EventId>],
) -> Vec<Section<'a>> {
    let (nv, nu) = (inst.num_events(), inst.num_users());
    let sections: Vec<Section<'a>> = vec![
        (
            "feasibility_check",
            Box::new(move || {
                feasibility(nv, schedules, |e, v| reference_insertion_point(inst, e, v)) as f64
            }),
            Box::new(move || feasibility(nv, schedules, |e, v| flat.insertion_point(e, v)) as f64),
        ),
        (
            "inc_cost",
            Box::new(move || {
                inc_cost(nv, schedules, |e, u, v| reference_inc_cost(inst, e, u, v)) as f64
            }),
            Box::new(move || inc_cost(nv, schedules, |e, u, v| flat.inc_cost(e, u, v)) as f64),
        ),
        (
            "mu_row_sweep",
            Box::new(move || {
                mu_row_sweep(
                    nu,
                    |u| inst.mu_row(u),
                    |u, v| inst.round_trip(u, v),
                    |u| inst.user(u).budget,
                )
            }),
            Box::new(move || {
                mu_row_sweep(nu, |u| flat.mu_row(u), |u, v| flat.round_trip(u, v), |u| flat.budget(u))
            }),
        ),
    ];
    for (name, reference, flat) in &sections {
        assert_eq!(reference(), flat(), "{name}: reference and flat kernels disagree");
    }
    sections
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("core_hot_paths");
    g.sample_size(10).warm_up_time(Duration::from_secs(1)).measurement_time(Duration::from_secs(2));
    let inst = bench_instance();
    let flat = inst.freeze();
    let schedules = filled_schedules(&inst);
    for (name, reference, flat) in sections(&inst, &flat, &schedules) {
        g.bench_with_input(BenchmarkId::new(name, "reference"), &(), |b, ()| {
            b.iter(|| black_box(reference()))
        });
        g.bench_with_input(BenchmarkId::new(name, "flat"), &(), |b, ()| {
            b.iter(|| black_box(flat()))
        });
    }
    g.finish();
}

/// Medians from a small fixed-shape sample, independent of criterion's
/// calibration, feeding the JSON export.
fn median_ns(run: &dyn Fn() -> f64, samples: usize) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(run());
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn export_summary() {
    let inst = bench_instance();
    let flat = inst.freeze();
    let schedules = filled_schedules(&inst);
    let mut entries = Vec::new();
    for (name, reference, flat) in sections(&inst, &flat, &schedules) {
        black_box(reference()); // warm-up
        black_box(flat());
        let reference_ns = median_ns(reference.as_ref(), 7);
        let flat_ns = median_ns(flat.as_ref(), 7);
        entries.push(format!(
            "{{\"section\":\"{name}\",\"reference_median_ns\":{reference_ns},\
             \"flat_median_ns\":{flat_ns},\"speedup\":{:.3}}}",
            reference_ns.max(1) as f64 / flat_ns.max(1) as f64
        ));
    }
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\"bench\":\"core_hot_paths\",\"events\":{},\"users\":{},\"hardware_threads\":{},\
         \"sections\":[{}]}}\n",
        inst.num_events(),
        inst.num_users(),
        hardware_threads,
        entries.join(",")
    );
    // `BENCH_CORE_JSON` overrides; the default resolves to the
    // workspace root (cargo runs benches from the package dir)
    let path = std::env::var("BENCH_CORE_JSON")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| usep_bench::workspace_root_path("BENCH_core.json"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench);

fn main() {
    // mirror the harness's test-mode gate: `cargo test` builds and runs
    // harness=false bench binaries without `--bench`
    if !std::env::args().skip(1).any(|a| a == "--bench") {
        return;
    }
    benches();
    export_summary();
}
