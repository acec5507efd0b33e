//! Exhaustive reference solvers for testing.
//!
//! USEP is NP-hard (Theorem 1), so these are exponential and strictly for
//! verifying the fast algorithms on tiny instances:
//!
//! * [`optimal_single_schedule`] enumerates all subsets of a candidate
//!   list to certify the DP of Algorithm 2 (`|cands| ≲ 20`);
//! * [`optimal_planning`] searches the full assignment space to certify
//!   the ½-approximation of Theorem 3 (`|V| · |U| ≲ 12`).

use usep_core::{Cost, EventId, Instance, Planning, Schedule, UserId};

/// The utility-optimal feasible schedule for user `u` drawn from
/// `cands = [(event, utility)]` (utilities may be decomposed values, not
/// necessarily `μ`). Exhaustive over all `2^m` subsets.
///
/// # Panics
/// Panics when `cands.len() > 25` — use the DP for anything real.
pub fn optimal_single_schedule(
    inst: &Instance,
    u: UserId,
    cands: &[(EventId, f64)],
) -> (Vec<EventId>, f64) {
    let m = cands.len();
    assert!(m <= 25, "exhaustive subset search capped at 25 candidates");
    // sort candidate order by time so subsets enumerate in schedule order
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| {
        let t = inst.event(cands[i].0).time;
        (t.start(), t.end(), cands[i].0)
    });
    let budget = inst.user(u).budget;
    let flat = inst.freeze();
    let mut best: (Vec<EventId>, f64) = (Vec::new(), 0.0);
    'subset: for mask in 0u32..(1 << m) {
        let mut events = Vec::new();
        let mut score = 0.0;
        for &i in &order {
            if mask & (1 << i) != 0 {
                let (v, mu) = cands[i];
                if mu <= 0.0 {
                    continue 'subset;
                }
                events.push(v);
                score += mu;
            }
        }
        if score <= best.1 {
            continue;
        }
        // feasibility: consecutive precedence + reachable legs + budget
        for w in events.windows(2) {
            if !inst.event(w[0]).time.precedes(inst.event(w[1]).time)
                || inst.cost_vv(w[0], w[1]).is_infinite()
            {
                continue 'subset;
            }
        }
        let sched = Schedule::from_time_ordered(inst, events.clone());
        if sched.total_cost(&flat, u) > budget {
            continue;
        }
        best = (events, score);
    }
    best
}

/// The optimal planning of a whole instance by exhaustive search:
/// depth-first over users, enumerating every feasible schedule of each
/// user against the remaining event capacities.
///
/// # Panics
/// Panics when the instance is too large (`|V| > 10` or `|U| > 6`).
pub fn optimal_planning(inst: &Instance) -> (Planning, f64) {
    let nv = inst.num_events();
    let nu = inst.num_users();
    assert!(nv <= 10 && nu <= 6, "exhaustive planning search capped at 10 events / 6 users");

    // per user, the list of all feasible non-empty schedules (event sets)
    let per_user: Vec<Vec<(Vec<EventId>, f64)>> = inst
        .user_ids()
        .map(|u| feasible_schedules(inst, u))
        .collect();

    let mut caps: Vec<u32> = inst.events().iter().map(|e| e.capacity.min(nu as u32)).collect();
    let mut chosen: Vec<usize> = vec![usize::MAX; nu]; // usize::MAX = empty schedule
    let mut best_choice = chosen.clone();
    let mut best_score = 0.0f64;

    #[allow(clippy::too_many_arguments)] // recursive search state, local to this fn
    fn dfs(
        u: usize,
        nu: usize,
        per_user: &[Vec<(Vec<EventId>, f64)>],
        caps: &mut Vec<u32>,
        chosen: &mut Vec<usize>,
        score: f64,
        best_score: &mut f64,
        best_choice: &mut Vec<usize>,
    ) {
        if u == nu {
            if score > *best_score {
                *best_score = score;
                best_choice.clone_from(chosen);
            }
            return;
        }
        // empty schedule for user u
        chosen[u] = usize::MAX;
        dfs(u + 1, nu, per_user, caps, chosen, score, best_score, best_choice);
        for (si, (events, s)) in per_user[u].iter().enumerate() {
            if events.iter().any(|v| caps[v.index()] == 0) {
                continue;
            }
            for v in events {
                caps[v.index()] -= 1;
            }
            chosen[u] = si;
            dfs(u + 1, nu, per_user, caps, chosen, score + s, best_score, best_choice);
            for v in events {
                caps[v.index()] += 1;
            }
        }
    }

    dfs(0, nu, &per_user, &mut caps, &mut chosen, 0.0, &mut best_score, &mut best_choice);

    let schedules = best_choice
        .iter()
        .enumerate()
        .map(|(u, &si)| {
            if si == usize::MAX {
                Schedule::new()
            } else {
                Schedule::from_time_ordered(inst, per_user[u][si].0.clone())
            }
        })
        .collect();
    (Planning::from_schedules(inst, schedules), best_score)
}

/// All feasible non-empty schedules of user `u` (ignoring capacity, which
/// the planning search handles), with their utility.
fn feasible_schedules(inst: &Instance, u: UserId) -> Vec<(Vec<EventId>, f64)> {
    let cands: Vec<EventId> = {
        let mut c: Vec<EventId> = inst
            .event_ids()
            .filter(|&v| inst.mu(v, u) > 0.0 && inst.round_trip(u, v) <= inst.user(u).budget)
            .collect();
        c.sort_by_key(|&v| {
            let t = inst.event(v).time;
            (t.start(), t.end(), v)
        });
        c
    };
    let m = cands.len();
    let budget = inst.user(u).budget;
    let mut out = Vec::new();
    'subset: for mask in 1u32..(1 << m) {
        let mut events = Vec::new();
        let mut score = 0.0;
        for (i, &v) in cands.iter().enumerate() {
            if mask & (1 << i) != 0 {
                events.push(v);
                score += inst.mu(v, u);
            }
        }
        for w in events.windows(2) {
            if !inst.event(w[0]).time.precedes(inst.event(w[1]).time)
                || inst.cost_vv(w[0], w[1]).is_infinite()
            {
                continue 'subset;
            }
        }
        let mut total = inst.cost_to_event(u, events[0]);
        for w in events.windows(2) {
            total = total.add(inst.cost_vv(w[0], w[1]));
        }
        total = total.add(inst.cost_from_event(*events.last().unwrap(), u));
        if total > budget {
            continue;
        }
        let _ = Cost::ZERO;
        out.push((events, score));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Algorithm};
    use usep_core::{InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn small_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::new(0, 0), iv(0, 10));
        let v1 = b.event(2, Point::new(3, 0), iv(10, 20));
        let v2 = b.event(1, Point::new(5, 0), iv(5, 15)); // overlaps both
        let u0 = b.user(Point::new(1, 0), Cost::new(20));
        let u1 = b.user(Point::new(4, 0), Cost::new(12));
        b.utility(v0, u0, 0.6);
        b.utility(v1, u0, 0.5);
        b.utility(v2, u0, 0.9);
        b.utility(v0, u1, 0.4);
        b.utility(v1, u1, 0.8);
        b.utility(v2, u1, 0.3);
        b.build().unwrap()
    }

    #[test]
    fn optimal_single_schedule_simple() {
        let inst = small_instance();
        let cands: Vec<(EventId, f64)> = inst
            .event_ids()
            .map(|v| (v, inst.mu(v, UserId(0))))
            .collect();
        let (events, score) = optimal_single_schedule(&inst, UserId(0), &cands);
        // u0: v0 + v1 = 1.1 beats v2 alone = 0.9 (if affordable)
        assert!((score - 1.1).abs() < 1e-6, "got {score} with {events:?}");
    }

    #[test]
    fn optimal_planning_is_feasible_and_upper_bounds_heuristics() {
        let inst = small_instance();
        let (plan, opt) = optimal_planning(&inst);
        assert!(plan.validate(&inst).is_ok());
        assert!((plan.omega(&inst) - opt).abs() < 1e-9);
        for a in Algorithm::PAPER_SET {
            let got = solve(a, &inst).omega(&inst);
            assert!(got <= opt + 1e-9, "{a} exceeded optimum: {got} > {opt}");
        }
    }

    #[test]
    fn dedp_within_half_of_optimum_here() {
        let inst = small_instance();
        let (_, opt) = optimal_planning(&inst);
        for a in [Algorithm::DeDP, Algorithm::DeDPO, Algorithm::DeDPORG] {
            let got = solve(a, &inst).omega(&inst);
            assert!(got * 2.0 >= opt - 1e-9, "{a}: {got} < half of {opt}");
        }
    }

    #[test]
    fn empty_candidates_give_empty_schedule() {
        let inst = small_instance();
        let (events, score) = optimal_single_schedule(&inst, UserId(0), &[]);
        assert!(events.is_empty());
        assert_eq!(score, 0.0);
    }
}
