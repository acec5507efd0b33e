//! Upper bounds on the optimal total utility `Ω(A*)`.
//!
//! USEP is NP-hard, so the exact optimum is out of reach at scale —
//! but cheap upper bounds let experiments report *optimality gaps* for
//! the heuristics (an extension beyond the paper, which only compares
//! algorithms against each other). Two relaxations:
//!
//! * [`capacity_relaxed_bound`] drops the capacity constraint: each user
//!   independently gets their DP-optimal schedule (budget, feasibility
//!   and utility constraints intact). `O(|U| |V|² b)` in the worst case,
//!   where every `Ω(i, T)` state is on its row's Pareto frontier; in
//!   practice the cost of one DeDPO step-1 pass, frontier states relaxed.
//! * [`budget_relaxed_bound`] drops budgets and feasibility: each event
//!   collects its `min(c_v, |U|)` largest positive utilities.
//!   `O(|V| |U| log |U|)`.
//!
//! Each relaxation only enlarges the feasible set, so both values bound
//! `Ω(A*)` from above; [`best_upper_bound`] takes their minimum.

use crate::dedp::{optimal_user_schedule_with, DpScheduler};
use usep_core::{EventId, FlatInstance, Instance, UserId};
use usep_par::{current_threads, par_map_section};
use usep_trace::{Probe, NOOP};

/// Upper bound from dropping the capacity constraint: the sum over users
/// of their individually optimal schedule utilities.
///
/// The per-user DPs are independent, so they fan out over the
/// configured thread pool; each worker owns one reusable `DpScheduler`
/// workspace across all the users it processes. The
/// per-user utilities are summed on the caller's thread in user-id
/// order — float addition is not associative, so a scheduling-dependent
/// reduction order would break bit-identity with a sequential run.
pub fn capacity_relaxed_bound(inst: &Instance) -> f64 {
    capacity_relaxed_bound_with(inst, &NOOP)
}

/// [`capacity_relaxed_bound`] reporting through `probe`: the fan-out
/// runs as an observable `par.capacity_relaxed_bound` section, so a
/// request-scoped probe attributes the DP scan to its request.
pub fn capacity_relaxed_bound_with(inst: &Instance, probe: &dyn Probe) -> f64 {
    let flat = inst.freeze();
    let users: Vec<UserId> = inst.user_ids().collect();
    par_map_section(
        current_threads(),
        "par.capacity_relaxed_bound",
        probe,
        &users,
        DpScheduler::new,
        |ws, _, &u| optimal_user_utility_with(ws, &flat, u),
        |_| (),
    )
    .into_iter()
    .sum()
}

/// The DP-optimal schedule utility of one user, ignoring capacities.
pub fn optimal_user_utility(inst: &Instance, u: UserId) -> f64 {
    optimal_user_utility_with(&mut DpScheduler::new(), &inst.freeze(), u)
}

fn optimal_user_utility_with(ws: &mut DpScheduler<'_>, flat: &FlatInstance, u: UserId) -> f64 {
    let mu_row = flat.mu_row(u);
    let cands: Vec<(EventId, f64)> = mu_row
        .iter()
        .enumerate()
        .filter_map(|(vi, &m)| {
            let m = f64::from(m);
            if m > 0.0 {
                Some((EventId(vi as u32), m))
            } else {
                None
            }
        })
        .collect();
    optimal_user_schedule_with(ws, flat, u, &cands).1
}

/// Upper bound from dropping budgets and time conflicts: each event
/// contributes its `min(c_v, |U|)` largest positive utilities.
pub fn budget_relaxed_bound(inst: &Instance) -> f64 {
    let nu = inst.num_users();
    let mut total = 0.0;
    let mut col: Vec<f64> = Vec::with_capacity(nu);
    for v in inst.event_ids() {
        col.clear();
        for u in inst.user_ids() {
            let m = inst.mu(v, u);
            if m > 0.0 {
                col.push(m);
            }
        }
        let k = (inst.event(v).capacity as usize).min(nu);
        if col.len() > k {
            // partial selection of the k largest
            col.sort_unstable_by(|a, b| b.total_cmp(a));
            col.truncate(k);
        }
        total += col.iter().sum::<f64>();
    }
    total
}

/// The tighter of the two relaxation bounds.
pub fn best_upper_bound(inst: &Instance) -> f64 {
    capacity_relaxed_bound(inst).min(budget_relaxed_bound(inst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_planning;
    use crate::{solve, Algorithm};
    use usep_core::{Cost, EventId, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn small() -> Instance {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(0, 0), iv(0, 10));
        b.event(2, Point::new(3, 0), iv(10, 20));
        b.event(1, Point::new(5, 0), iv(5, 15));
        let _u0 = b.user(Point::new(1, 0), Cost::new(20));
        let _u1 = b.user(Point::new(4, 0), Cost::new(12));
        for (v, u, m) in [
            (0, 0, 0.6),
            (1, 0, 0.5),
            (2, 0, 0.9),
            (0, 1, 0.4),
            (1, 1, 0.8),
            (2, 1, 0.3),
        ] {
            b.utility(EventId(v), usep_core::UserId(u), m);
        }
        b.build().unwrap()
    }

    #[test]
    fn bounds_dominate_the_exact_optimum() {
        let inst = small();
        let (_, opt) = optimal_planning(&inst);
        assert!(capacity_relaxed_bound(&inst) >= opt - 1e-9);
        assert!(budget_relaxed_bound(&inst) >= opt - 1e-9);
        assert!(best_upper_bound(&inst) >= opt - 1e-9);
    }

    #[test]
    fn bounds_dominate_every_heuristic() {
        let inst = small();
        let ub = best_upper_bound(&inst);
        for a in Algorithm::PAPER_SET {
            let o = solve(a, &inst).omega(&inst);
            assert!(ub >= o - 1e-9, "{a}: bound {ub} < Ω {o}");
        }
    }

    #[test]
    fn budget_relaxed_counts_top_capacity_utilities() {
        let mut b = InstanceBuilder::new();
        let v = b.event(2, Point::ORIGIN, iv(0, 1));
        for _ in 0..4 {
            b.user(Point::ORIGIN, Cost::new(10));
        }
        for (u, m) in [(0, 0.1), (1, 0.9), (2, 0.5), (3, 0.7)] {
            b.utility(v, usep_core::UserId(u), m);
        }
        let inst = b.build().unwrap();
        // top-2 utilities: 0.9 + 0.7
        assert!((budget_relaxed_bound(&inst) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn capacity_relaxed_is_exact_for_single_user() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::new(1, 0), iv(0, 10));
        b.event(1, Point::new(2, 0), iv(10, 20));
        let u = b.user(Point::ORIGIN, Cost::new(50));
        b.utility(EventId(0), u, 0.4);
        b.utility(EventId(1), u, 0.7);
        let inst = b.build().unwrap();
        let (_, opt) = optimal_planning(&inst);
        assert!((capacity_relaxed_bound(&inst) - opt).abs() < 1e-9);
    }

    #[test]
    fn zero_utility_instance_has_zero_bounds() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        b.user(Point::ORIGIN, Cost::new(10));
        let inst = b.build().unwrap();
        assert_eq!(best_upper_bound(&inst), 0.0);
    }
}
