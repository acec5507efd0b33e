//! Differential test of the decomposed framework (Alg. 4) against a
//! plain reference implementation.
//!
//! The engine picks each event's Lemma-2 slot from a cached holder
//! utility and per-event floor, and solves `DPSingle` over row-local
//! Pareto frontiers. Both are exact only if they reproduce the plain
//! versions choice for choice, ties included, so this file re-implements
//! the framework from scratch over the public API (`FlatInstance`
//! accessors, `inst.temporal().order()`): the ascending `select` scan
//! with a `μ` gather per held slot, the dense `|V'_r| × (b_u + 1)`
//! `Ω(i, T)` table, `GreedySingle` with its gap-region heap, and
//! last-holder step 2. It asserts identical plannings for DeDPO,
//! DeDPO+RG, DeGreedy and DeGreedy+RG.
//!
//! DeDP ≡ DeDPO property tests pin the slot pick (DeDP scans its literal
//! `μ^r` matrix) but not the DP, which both share; this reference pins
//! both. The `#[ignore]`d case runs the Fig. 4 benchmark instances; run
//! it in release:
//!
//! ```sh
//! cargo test --release -p usep-algos --test dedpo_reference -- --ignored
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use usep_algos::{augment_with_ratio_greedy, solve, Algorithm};
use usep_core::{
    Cost, EventId, FlatInstance, Instance, InstanceBuilder, Planning, Point, Schedule,
    TimeInterval, TravelCost, UserId,
};
use usep_gen::{generate, SyntheticConfig};

/// A candidate offered to the single-user subproblem: event, global slot
/// and decomposed utility.
#[derive(Clone, Copy, Debug)]
struct Cand {
    v: EventId,
    slot: usize,
    mu: f64,
}

/// Algorithm 2 over the dense `Ω(i, T)` table: base case, then `l`
/// ascending, then `T` ascending, strict `>` on every cell and on the
/// best score. Returns the chosen candidate indices in time order.
fn dense_dp(flat: &FlatInstance, u: UserId, cands: &[Cand]) -> Vec<usize> {
    let m = cands.len();
    let budget = flat.budget(u).value() as usize;
    let stride = budget + 1;
    let mut omega = vec![0.0f64; m * stride];
    let mut path = vec![-1i64; m * stride];
    let mut best_score = 0.0f64;
    let mut best_cell = None::<(usize, usize)>;
    for i in 0..m {
        let vi = cands[i].v;
        let mu_i = cands[i].mu;
        let arrive = flat.cost_to_event(u, vi).value() as usize;
        let t_cap = budget - flat.cost_from_event(vi, u).value() as usize;
        if mu_i > omega[i * stride + arrive] {
            omega[i * stride + arrive] = mu_i;
            path[i * stride + arrive] = -1;
            if mu_i > best_score {
                best_score = mu_i;
                best_cell = Some((i, arrive));
            }
        }
        for l in 0..i {
            if flat.event_end(cands[l].v) > flat.event_start(vi) {
                continue;
            }
            let Some(c) = flat.cost_vv(cands[l].v, vi).finite_value() else {
                continue;
            };
            let c = c as usize;
            if c > t_cap {
                continue;
            }
            for t in 0..=t_cap - c {
                let s = omega[l * stride + t];
                if s <= 0.0 {
                    continue;
                }
                let (nt, ns) = (t + c, s + mu_i);
                if ns > omega[i * stride + nt] {
                    omega[i * stride + nt] = ns;
                    path[i * stride + nt] = l as i64;
                    if ns > best_score {
                        best_score = ns;
                        best_cell = Some((i, nt));
                    }
                }
            }
        }
    }
    let mut chosen = Vec::new();
    if let Some((mut i, mut t)) = best_cell {
        loop {
            chosen.push(i);
            let prev = path[i * stride + t];
            if prev < 0 {
                break;
            }
            let l = prev as usize;
            t -= flat.cost_vv(cands[l].v, cands[i].v).value() as usize;
            i = l;
        }
        chosen.reverse();
    }
    chosen
}

/// A `GreedySingle` heap entry: the best valid candidate of the gap
/// region `[lo, hi]`.
#[derive(Clone, Copy, Debug)]
struct GapCand {
    ratio: f64,
    inc: Cost,
    idx: usize,
    lo: usize,
    hi: usize,
}

impl Ord for GapCand {
    /// Ratio descending, then inc ascending, then index ascending.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then_with(|| other.inc.cmp(&self.inc))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for GapCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GapCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for GapCand {}

/// Algorithm 5: insert by descending `μ / inc_cost`, one heap entry per
/// gap region, re-checking the budget on pop and rescanning a region
/// whose entry went stale. Returns chosen candidate indices in time order.
fn greedy_single(flat: &FlatInstance, u: UserId, cands: &[Cand]) -> Vec<usize> {
    let m = cands.len();
    if m == 0 {
        return Vec::new();
    }
    let budget = flat.budget(u);
    let mut sched = Schedule::new();
    let mut chosen: Vec<usize> = Vec::new();
    let mut total = Cost::ZERO;
    let scan = |sched: &Schedule, total: Cost, lo: usize, hi: usize| -> Option<GapCand> {
        let mut best: Option<GapCand> = None;
        for (idx, c) in cands.iter().enumerate().take(hi.min(m - 1) + 1).skip(lo) {
            let Some(pos) = sched.insertion_point(flat, c.v) else {
                continue;
            };
            let inc = sched.inc_cost_at(flat, u, c.v, pos);
            if inc.is_infinite() || total.add(inc) > budget {
                continue;
            }
            let ratio = if inc == Cost::ZERO { f64::INFINITY } else { c.mu / inc.as_f64() };
            let entry = GapCand { ratio, inc, idx, lo, hi };
            if best.is_none_or(|b| entry > b) {
                best = Some(entry);
            }
        }
        best
    };
    let mut heap: BinaryHeap<GapCand> = scan(&sched, total, 0, m - 1).into_iter().collect();
    while let Some(c) = heap.pop() {
        let v = cands[c.idx].v;
        let pos = sched.insertion_point(flat, v).expect("a region's entry stays insertable");
        let inc = sched.inc_cost_at(flat, u, v, pos);
        if inc.is_infinite() || total.add(inc) > budget {
            heap.extend(scan(&sched, total, c.lo, c.hi));
            continue;
        }
        sched.try_insert(flat, u, v).expect("validated insertion");
        total = total.add(inc);
        let at = chosen.partition_point(|&x| x < c.idx);
        chosen.insert(at, c.idx);
        if c.idx > c.lo {
            heap.extend(scan(&sched, total, c.lo, c.idx - 1));
        }
        if c.idx < c.hi {
            heap.extend(scan(&sched, total, c.idx + 1, c.hi));
        }
    }
    chosen
}

/// A single-user subproblem solver over end-time-ordered candidates.
type Single = fn(&FlatInstance, UserId, &[Cand]) -> Vec<usize>;

/// The decomposed framework with `single` as the per-user subproblem:
/// capacities clamped to `|U|`, users in id order, the ascending
/// strict-improvement slot scan over `μ(v, u_r) − μ(v, holder)`, and
/// each slot kept by its last holder.
fn reference(inst: &Instance, single: Single) -> Planning {
    let flat = inst.freeze();
    let nu = inst.num_users() as u32;
    let mut offsets = Vec::with_capacity(inst.num_events() + 1);
    offsets.push(0usize);
    for e in inst.events() {
        offsets.push(offsets.last().unwrap() + e.capacity.min(nu) as usize);
    }
    let mut select = vec![0u32; *offsets.last().unwrap()];
    for r in 0..nu {
        let u = UserId(r);
        let mut cands = Vec::new();
        for &vi in inst.temporal().order() {
            let v = EventId(vi);
            let mu_vr = flat.mu(v, u);
            let mut best: Option<(f64, usize)> = None;
            let first = offsets[v.index()];
            for (k, &holder) in select[first..offsets[v.index() + 1]].iter().enumerate() {
                let val = match holder {
                    0 => mu_vr,
                    holder => mu_vr - flat.mu(v, UserId(holder - 1)),
                };
                if best.is_none_or(|(b, _)| val > b) {
                    best = Some((val, first + k));
                }
            }
            if let Some((mu, slot)) = best {
                if mu > 0.0 && flat.round_trip(u, v) <= flat.budget(u) {
                    cands.push(Cand { v, slot, mu });
                }
            }
        }
        for ci in single(&flat, u, &cands) {
            select[cands[ci].slot] = r + 1;
        }
    }
    let mut per_user: Vec<Vec<EventId>> = vec![Vec::new(); inst.num_users()];
    for v in inst.event_ids() {
        for &h in &select[offsets[v.index()]..offsets[v.index() + 1]] {
            if h > 0 {
                per_user[(h - 1) as usize].push(v);
            }
        }
    }
    let schedules = per_user
        .into_iter()
        .map(|mut evs| {
            evs.sort_by_key(|&v| {
                let t = inst.event(v).time;
                (t.start(), t.end(), v)
            });
            Schedule::from_time_ordered(inst, evs)
        })
        .collect();
    Planning::from_schedules(inst, schedules)
}

/// All four framework solvers against the reference.
fn check(inst: &Instance, what: &str) {
    for (base, augmented, single) in [
        (Algorithm::DeDPO, Algorithm::DeDPORG, dense_dp as Single),
        (Algorithm::DeGreedy, Algorithm::DeGreedyRG, greedy_single),
    ] {
        let mut expect = reference(inst, single);
        assert!(solve(base, inst) == expect, "{what}: {base} differs from the reference");
        augment_with_ratio_greedy(inst, &mut expect);
        assert!(solve(augmented, inst) == expect, "{what}: {augmented} differs from the reference");
    }
}

fn iv(a: i64, b: i64) -> TimeInterval {
    TimeInterval::new(a, b).unwrap()
}

/// A small grid instance with overlapping intervals, optional
/// travel-time gating and fees, capacities 1–4 and utilities on a
/// tie-heavy grid (multiples of 1/2, 1/4 or 1/8) or fine-grained, so
/// slot values and DP states tie often.
fn tie_heavy(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = InstanceBuilder::new();
    let nv = rng.gen_range(1..=16u32);
    let nu = rng.gen_range(1..=30u32);
    for _ in 0..nv {
        let at = Point::new(rng.gen_range(-10..=10), rng.gen_range(-10..=10));
        let start = rng.gen_range(0..50i64);
        let v = b.event(rng.gen_range(1..=4), at, iv(start, start + rng.gen_range(1..=10i64)));
        if rng.gen_bool(0.2) {
            b.fee(v, rng.gen_range(0..=3));
        }
    }
    if rng.gen_bool(0.3) {
        b.travel(TravelCost::Grid { time_per_unit: 1 });
    }
    for _ in 0..nu {
        let at = Point::new(rng.gen_range(-8..=8), rng.gen_range(-8..=8));
        b.user(at, Cost::new(rng.gen_range(0..=80)));
    }
    let grid = [2u32, 4, 8, 0][rng.gen_range(0..4usize)];
    let mu = (0..nv * nu)
        .map(|_| match grid {
            0 => rng.gen_range(0.0..1.0) as f32,
            g => rng.gen_range(0..=g) as f32 / g as f32,
        })
        .collect();
    b.utility_matrix(mu);
    b.build().unwrap()
}

#[test]
fn tie_heavy_instances_match_the_reference() {
    for seed in 0..300u64 {
        check(&tie_heavy(seed), &format!("tie-heavy seed {seed}"));
    }
}

#[test]
fn generated_instances_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(15);
    for case in 0..40 {
        let cfg = SyntheticConfig::tiny()
            .with_events(rng.gen_range(1..30))
            .with_users(rng.gen_range(1..60))
            .with_capacity_mean(rng.gen_range(1..12))
            .with_budget_factor([0.5, 1.0, 2.0, 4.0][case % 4]);
        check(&generate(&cfg, rng.gen()), &format!("generated case {case}"));
    }
}

/// The Fig. 4 benchmark instances (|V| = 100, |U| = 5000, mean capacity
/// 50, generator seeds 1..=3). Too slow for a debug run.
#[test]
#[ignore = "Fig. 4 scale: run in release with --ignored"]
fn fig4_instances_match_the_reference() {
    for seed in 1..=3u64 {
        let inst = generate(&SyntheticConfig::default().with_users(5000), seed);
        check(&inst, &format!("fig4 seed {seed}"));
    }
}
