//! Single-event-per-user baseline.
//!
//! The paper motivates USEP against prior event-organization work
//! (\[19\]'s SEO and \[26\]) that assigns **at most one event per user** and
//! ignores travel between events. This baseline reproduces that regime
//! inside our constraint model: pairs are taken by descending utility
//! (ties by cheaper round trip, then ids), each user receives at most one
//! event, and the round trip must fit the budget. Comparing its Ω against
//! the USEP algorithms quantifies the value of multi-event planning.

use crate::{GuardedSolve, Solver};
use usep_core::{EventId, Instance, Planning, UserId};
use usep_guard::{Guard, SolveOutcome};
use usep_trace::Probe;

/// Greedy one-event-per-user assignment (SEO-style comparison baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleEventGreedy;

impl Solver for SingleEventGreedy {
    fn name(&self) -> &'static str {
        "SingleEvent"
    }

    fn solve_guarded(&self, inst: &Instance, _: &Guard, _: &dyn Probe) -> GuardedSolve {
        let mut pairs: Vec<(EventId, UserId)> = Vec::new();
        for u in inst.user_ids() {
            for v in inst.event_ids() {
                if inst.mu(v, u) > 0.0 && inst.round_trip(u, v) <= inst.user(u).budget {
                    pairs.push((v, u));
                }
            }
        }
        pairs.sort_by(|&(v1, u1), &(v2, u2)| {
            inst.mu(v2, u2)
                .total_cmp(&inst.mu(v1, u1))
                .then_with(|| inst.round_trip(u1, v1).cmp(&inst.round_trip(u2, v2)))
                .then_with(|| (v1, u1).cmp(&(v2, u2)))
        });
        let mut planning = Planning::empty(inst);
        let mut user_served = vec![false; inst.num_users()];
        for (v, u) in pairs {
            if user_served[u.index()] || planning.remaining_capacity(inst, v) == 0 {
                continue;
            }
            planning.assign(inst, u, v).expect("validated single-event assignment");
            user_served[u.index()] = true;
        }
        GuardedSolve { planning, outcome: SolveOutcome::Complete }
    }
}

/// Multi-event global greedy by **utility alone** — RatioGreedy without
/// the denominator. An ablation of Eq. (2): comparing it against
/// RatioGreedy isolates how much the `inc_cost` term contributes.
/// Budget-blind ranking spends travel budget on far-away high-μ events,
/// crowding out cheap follow-ups.
#[derive(Clone, Copy, Debug, Default)]
pub struct UtilityGreedy;

impl Solver for UtilityGreedy {
    fn name(&self) -> &'static str {
        "UtilityGreedy"
    }

    fn solve_guarded(&self, inst: &Instance, _: &Guard, _: &dyn Probe) -> GuardedSolve {
        let mut pairs: Vec<(EventId, UserId)> = Vec::new();
        for u in inst.user_ids() {
            for v in inst.event_ids() {
                if inst.mu(v, u) > 0.0 && inst.round_trip(u, v) <= inst.user(u).budget {
                    pairs.push((v, u));
                }
            }
        }
        pairs.sort_by(|&(v1, u1), &(v2, u2)| {
            inst.mu(v2, u2)
                .total_cmp(&inst.mu(v1, u1))
                .then_with(|| (v1, u1).cmp(&(v2, u2)))
        });
        let mut planning = Planning::empty(inst);
        for (v, u) in pairs {
            // best-effort insertion in utility order, all constraints on
            let _ = planning.assign(inst, u, v);
        }
        GuardedSolve { planning, outcome: SolveOutcome::Complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeDPO, Solver};
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn one_event_per_user() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(5, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(5, Point::new(2, 0), iv(10, 20));
        let u0 = b.user(Point::ORIGIN, Cost::new(50));
        let u1 = b.user(Point::ORIGIN, Cost::new(50));
        for &u in &[u0, u1] {
            b.utility(v0, u, 0.9);
            b.utility(v1, u, 0.8);
        }
        let inst = b.build().unwrap();
        let p = SingleEventGreedy.solve(&inst);
        assert!(p.validate(&inst).is_ok());
        assert_eq!(p.schedule(u0).len(), 1);
        assert_eq!(p.schedule(u1).len(), 1);
        // both take the higher-utility event (capacity allows)
        assert_eq!(p.load(v0), 2);
    }

    #[test]
    fn capacity_pushes_user_to_next_choice() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(0, 10));
        let v1 = b.event(1, Point::ORIGIN, iv(10, 20));
        let u0 = b.user(Point::ORIGIN, Cost::new(50));
        let u1 = b.user(Point::ORIGIN, Cost::new(50));
        b.utility(v0, u0, 0.9);
        b.utility(v1, u0, 0.1);
        b.utility(v0, u1, 0.8);
        b.utility(v1, u1, 0.7);
        let inst = b.build().unwrap();
        let p = SingleEventGreedy.solve(&inst);
        assert_eq!(p.schedule(u0).events(), &[v0]);
        assert_eq!(p.schedule(u1).events(), &[v1]);
    }

    #[test]
    fn multi_event_planning_beats_baseline() {
        // plenty of compatible events: USEP algorithms should clearly win
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..4i32 {
            vs.push(b.event(2, Point::new(i, 0), iv(i64::from(i) * 10, i64::from(i) * 10 + 9)));
        }
        let u0 = b.user(Point::ORIGIN, Cost::new(100));
        let u1 = b.user(Point::new(3, 0), Cost::new(100));
        for &v in &vs {
            b.utility(v, u0, 0.5);
            b.utility(v, u1, 0.5);
        }
        let inst = b.build().unwrap();
        let single = SingleEventGreedy.solve(&inst).omega(&inst);
        let multi = DeDPO::new().solve(&inst).omega(&inst);
        assert!(multi > single, "multi {multi} vs single {single}");
    }

    #[test]
    fn budget_excludes_far_events() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::new(100, 0), iv(0, 10));
        let u = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u, 1.0);
        let inst = b.build().unwrap();
        let p = SingleEventGreedy.solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn utility_greedy_is_feasible_and_multi_event() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(2, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(2, Point::new(2, 0), iv(10, 20));
        let u = b.user(Point::ORIGIN, Cost::new(20));
        b.utility(v0, u, 0.5);
        b.utility(v1, u, 0.6);
        let inst = b.build().unwrap();
        let p = UtilityGreedy.solve(&inst);
        p.validate(&inst).unwrap();
        assert_eq!(p.schedule(u).len(), 2);
    }

    #[test]
    fn ratio_denominator_matters() {
        // the Eq. (2) ablation: the high-μ event A eats the whole budget,
        // so utility-blind greedy strands the user; the ratio sends them
        // to two cheap events worth more in total
        let mut b = InstanceBuilder::new();
        let a = b.event(1, Point::new(5, 0), iv(0, 10)); // μ .9, round trip 10
        let bb = b.event(1, Point::new(1, 0), iv(0, 10)); // μ .5, conflicts with a
        let c = b.event(1, Point::new(0, 1), iv(10, 20)); // μ .5
        let u = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(a, u, 0.9);
        b.utility(bb, u, 0.5);
        b.utility(c, u, 0.5);
        let inst = b.build().unwrap();
        let ug = UtilityGreedy.solve(&inst);
        let rg = crate::RatioGreedy.solve(&inst);
        assert_eq!(ug.schedule(u).events(), &[a], "utility-first takes the budget hog");
        assert_eq!(rg.schedule(u).events(), &[bb, c], "ratio prefers two cheap events");
        assert!(rg.omega(&inst) > ug.omega(&inst));
    }

    #[test]
    fn utility_greedy_deterministic() {
        let mut b = InstanceBuilder::new();
        for i in 0..4i32 {
            b.event(2, Point::new(i, 0), iv(i64::from(i) * 10, i64::from(i) * 10 + 9));
        }
        for j in 0..3i32 {
            b.user(Point::new(j, 1), Cost::new(25));
        }
        for v in 0..4u32 {
            for u in 0..3u32 {
                b.utility(EventId(v), UserId(u), ((v * 3 + u) % 5 + 1) as f64 / 5.0);
            }
        }
        let inst = b.build().unwrap();
        assert_eq!(UtilityGreedy.solve(&inst), UtilityGreedy.solve(&inst));
    }
}
