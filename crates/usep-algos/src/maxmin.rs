//! Max-min (bottleneck-aware) planning — an alternative objective.
//!
//! The paper's related work cites \[29\] (Tong, Meng, She, ICDE-W'15),
//! which optimizes the *minimum* user satisfaction instead of the sum.
//! This module implements that regime inside our constraint model as a
//! lexicographic water-filling greedy: repeatedly take a user with the
//! currently **lowest** schedule utility and grant them their best
//! feasible event; a user with no feasible addition is frozen. The
//! result trades total `Ω` for a much flatter utility distribution
//! (higher Jain index, more users served) — quantified by
//! [`FairnessStats`](usep_core::fairness::FairnessStats) and the
//! `ext/fairness` experiment panel.

use crate::{GuardedSolve, Solver};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use usep_core::{Cost, EventId, Instance, Planning, UserId};
use usep_guard::{Guard, SolveOutcome};
use usep_trace::Probe;

/// Water-filling greedy for the max-min objective.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxMinGreedy;

/// Heap key: utility ascending, then user id ascending (deterministic).
#[derive(PartialEq)]
struct Poorest(f64, u32);

impl Eq for Poorest {}
impl Ord for Poorest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then_with(|| self.1.cmp(&other.1))
    }
}
impl PartialOrd for Poorest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Solver for MaxMinGreedy {
    fn name(&self) -> &'static str {
        "MaxMinGreedy"
    }

    fn solve_guarded(&self, inst: &Instance, _: &Guard, _: &dyn Probe) -> GuardedSolve {
        let flat = inst.freeze();
        let mut planning = Planning::empty(inst);
        // min-heap of (current utility, user)
        let mut heap: BinaryHeap<Reverse<Poorest>> = inst
            .user_ids()
            .map(|u| Reverse(Poorest(0.0, u.0)))
            .collect();
        while let Some(Reverse(Poorest(util, u))) = heap.pop() {
            let u = UserId(u);
            // best feasible addition for the poorest user: max μ, tie by
            // smaller incremental cost, then event id
            let mut best: Option<(EventId, f64, Cost)> = None;
            for v in inst.event_ids() {
                if planning.remaining_capacity(inst, v) == 0 || inst.mu(v, u) <= 0.0 {
                    continue;
                }
                let s = planning.schedule(u);
                let Some(pos) = s.insertion_point(&flat, v) else { continue };
                let inc = s.inc_cost_at(&flat, u, v, pos);
                if inc.is_infinite() || s.total_cost(&flat, u).add(inc) > inst.user(u).budget {
                    continue;
                }
                let mu = inst.mu(v, u);
                let better = match best {
                    None => true,
                    Some((bv, bmu, binc)) => {
                        mu > bmu || (mu == bmu && (inc < binc || (inc == binc && v < bv)))
                    }
                };
                if better {
                    best = Some((v, mu, inc));
                }
            }
            if let Some((v, mu, _)) = best {
                planning.assign(inst, u, v).expect("validated assignment");
                heap.push(Reverse(Poorest(util + mu, u.0)));
            }
            // no feasible addition: the user is frozen (not re-pushed)
        }
        GuardedSolve { planning, outcome: SolveOutcome::Complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Algorithm};
    use usep_core::fairness::FairnessStats;
    use usep_core::{InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn spreads_scarce_capacity_across_users() {
        // two capacity-1 events, two users, both like both; Ω-greedy
        // would happily give both to one user — max-min must not
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::ORIGIN, iv(10, 20));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        for v in [v0, v1] {
            b.utility(v, u0, 0.6);
            b.utility(v, u1, 0.5);
        }
        let inst = b.build().unwrap();
        let p = MaxMinGreedy.solve(&inst);
        p.validate(&inst).unwrap();
        assert_eq!(p.schedule(u0).len(), 1);
        assert_eq!(p.schedule(u1).len(), 1);
        let f = FairnessStats::compute(&inst, &p);
        assert_eq!(f.served_fraction, 1.0);
    }

    #[test]
    fn feasible_and_deterministic_on_random_instances() {
        use usep_gen::{generate, SyntheticConfig};
        for seed in 0..8u64 {
            let inst = generate(&SyntheticConfig::tiny().with_users(20), 700 + seed);
            let a = MaxMinGreedy.solve(&inst);
            a.validate(&inst).unwrap();
            assert_eq!(a, MaxMinGreedy.solve(&inst));
        }
    }

    #[test]
    fn fairer_than_omega_maximizers_under_scarcity() {
        use usep_gen::{generate, SyntheticConfig};
        // scarce capacity: far fewer slots than users want
        let cfg = SyntheticConfig::tiny().with_events(6).with_users(30).with_capacity_mean(2);
        let mut wins = 0;
        for seed in 0..6u64 {
            let inst = generate(&cfg, 800 + seed);
            let mm = FairnessStats::compute(&inst, &MaxMinGreedy.solve(&inst));
            let dp = FairnessStats::compute(&inst, &solve(Algorithm::DeDPO, &inst));
            if mm.jain_index >= dp.jain_index - 1e-9 {
                wins += 1;
            }
        }
        assert!(wins >= 4, "MaxMinGreedy should usually be at least as fair ({wins}/6)");
    }

    #[test]
    fn empty_instance() {
        let mut b = InstanceBuilder::new();
        b.user(Point::ORIGIN, Cost::new(5));
        let inst = b.build().unwrap();
        assert_eq!(MaxMinGreedy.solve(&inst).num_assignments(), 0);
    }
}
