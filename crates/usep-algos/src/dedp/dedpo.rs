//! DeDPO (Algorithm 4): the space/speed-optimized two-step framework.
//!
//! Lemma 2 shows that when the framework is about to process user `u_r`,
//! the decomposed utility of a pseudo-event slot is fully determined by
//! the *last* user whose step-1 schedule contained the slot:
//! `μ^r(v_{i,k}, u_r) = μ(v_i, u_r) − μ(v_i, u_last)` (or the plain
//! `μ(v_i, u_r)` for a free slot). DeDPO therefore keeps only a
//! `select(v_i, k)` array instead of the full `μ^r` matrix, saving
//! `O(|V| |U| max c_v)` space and the per-iteration matrix update, while
//! producing exactly the same planning as [`DeDP`](super::DeDP).
//!
//! The driver is generic over the single-user subproblem solver, so
//! [`DeGreedy`](crate::DeGreedy) reuses it with the greedy of Alg. 5.

use super::{
    build_planning_from_holders, Candidate, DpScheduler, PseudoLayout,
    SingleScheduler,
};
use crate::augment::augment_with_ratio_greedy_guarded;
use crate::{finish_guarded, GuardedSolve, Solver};
use usep_core::{EventId, Instance, Planning, UserId};
use usep_guard::Guard;
use usep_trace::{with_span, Counter, Probe};

/// DeDPO (Alg. 4): ½-approximate, `O(|V| max c_v + |V| b_u + |V||U|)`
/// space. `with_augment()` turns it into the paper's DeDPO+RG.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeDPO {
    augment: bool,
}

impl DeDPO {
    /// Plain DeDPO.
    pub fn new() -> DeDPO {
        DeDPO { augment: false }
    }

    /// DeDPO followed by the RatioGreedy pass over residual capacity
    /// (§4.3.2) — the paper's DeDPO+RG. Still ½-approximate: the pass
    /// only ever adds utility.
    pub fn with_augment(self) -> DeDPO {
        DeDPO { augment: true }
    }
}

impl Solver for DeDPO {
    fn name(&self) -> &'static str {
        if self.augment {
            "DeDPO+RG"
        } else {
            "DeDPO"
        }
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let mut scheduler = DpScheduler::with_guard(probe, guard);
        let mut planning = decomposed_with_select(inst, &mut scheduler, guard, probe);
        if self.augment && !guard.is_tripped() {
            augment_with_ratio_greedy_guarded(inst, &mut planning, guard, probe);
        }
        GuardedSolve { planning, outcome: finish_guarded(guard, probe) }
    }
}

/// The select-array two-step framework shared by DeDPO and DeGreedy.
///
/// For each user `u_r` (in id order, as the paper's decomposition
/// prescribes):
///
/// 1. per event, pick the slot maximizing the Lemma-2 value — the first
///    one in ascending `k`, mirroring DeDP's strict-improvement `argmax`
///    so both algorithms break ties identically;
/// 2. keep candidates with positive decomposed utility (`V_r`) that pass
///    the Lemma-1 round-trip filter (`V'_r`), in end-time order;
/// 3. let `scheduler` solve the single-user subproblem;
/// 4. stamp the chosen slots with `r + 1`.
///
/// Beside `select`, `held[p]` caches the holder's `μ` (0 while free) and
/// `floor[v]` the least `held` over `v`'s slots. The best Lemma-2 value of
/// `v` is `μ(v, u_r) − floor[v]`, since `x ↦ μ − x` stays monotone after
/// rounding: an event with `μ(v, u_r) ≤ floor[v]` is skipped outright,
/// and otherwise the pick is the first slot whose value reaches it.
///
/// Step 2 of the framework — keep each slot with its last holder — is
/// exactly what the final `select` array encodes.
pub(crate) fn decomposed_with_select(
    inst: &Instance,
    scheduler: &mut impl SingleScheduler,
    guard: &Guard,
    probe: &dyn Probe,
) -> Planning {
    let flat = inst.freeze();
    let layout = PseudoLayout::new(inst);
    let mut select = vec![0u32; layout.total()];
    let mut held = vec![0.0f32; layout.total()];
    let mut floor = vec![0.0f32; inst.num_events()];
    let order = inst.temporal().order();
    let mut cands: Vec<Candidate> = Vec::with_capacity(inst.num_events());

    probe.span_enter("decomposed.step1");
    for r in 0..inst.num_users() as u32 {
        // the select array over the users handled so far is a valid
        // partial decomposition: stop between users on budget exhaustion
        if guard.checkpoint() {
            break;
        }
        let u = UserId(r);
        // building V'_r is the decomposed framework's per-user candidate
        // refresh (step 1 of Alg. 3/4)
        probe.count(Counter::CandidateRefreshUser, 1);
        let mu_row = flat.mu_row(u);
        // Lemma 1 prunes events whose lone round trip busts the budget
        let (round_trips, budget) = (flat.round_trip_row(u), flat.budget(u));
        cands.clear();
        for &vi in order {
            let mu_vr = f64::from(mu_row[vi as usize]);
            let floor_v = f64::from(floor[vi as usize]);
            // every slot value is μ(v, u_r) − held ≤ μ(v, u_r) − floor ≤ 0:
            // never in V_r
            if mu_vr <= floor_v || round_trips[vi as usize] > budget {
                continue;
            }
            let v = EventId(vi);
            let best_val = mu_vr - floor_v;
            let best_slot = layout
                .slots(v)
                .find(|&p| mu_vr - f64::from(held[p]) >= best_val)
                .expect("the floor is some slot's holder value");
            cands.push(Candidate { v, slot: best_slot as u32, mu: best_val });
        }
        let chosen = scheduler.schedule(&flat, u, &cands);
        for &ci in &chosen {
            let (v, p) = (cands[ci].v, cands[ci].slot as usize);
            select[p] = r + 1;
            held[p] = mu_row[v.index()];
            floor[v.index()] = held[layout.slots(v)].iter().copied().fold(f32::INFINITY, f32::min);
        }
    }
    probe.span_exit("decomposed.step1");

    with_span(probe, "decomposed.step2", || build_planning_from_holders(inst, &layout, &select))
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn empty_instance() {
        let mut b = InstanceBuilder::new();
        b.user(Point::ORIGIN, Cost::new(5));
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert_eq!(p.num_assignments(), 0);
    }

    #[test]
    fn single_user_gets_optimal_schedule() {
        // per-user subproblem is solved optimally by the DP
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(2, 0), iv(10, 20));
        let v2 = b.event(1, Point::new(40, 0), iv(0, 20)); // conflicts with both
        let u = b.user(Point::ORIGIN, Cost::new(90));
        b.utility(v0, u, 0.4);
        b.utility(v1, u, 0.4);
        b.utility(v2, u, 0.7);
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert_eq!(p.schedule(u).events(), &[v0, v1]);
        assert!((p.omega(&inst) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn later_user_with_higher_utility_steals_the_slot() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10)); // capacity 1
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.3);
        b.utility(v, u1, 0.8); // strictly higher: steals
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert!(p.schedule(u0).is_empty());
        assert_eq!(p.schedule(u1).events(), &[v]);
        assert!((p.omega(&inst) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn later_user_with_equal_utility_does_not_steal() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.5);
        b.utility(v, u1, 0.5); // decomposed value 0: not in V_1
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert_eq!(p.schedule(u0).events(), &[v]);
        assert!(p.schedule(u1).is_empty());
    }

    #[test]
    fn slot_pick_ties_on_value_not_on_holder_utility() {
        // u0 and u1 hold the two slots with different but tiny utilities;
        // for u2 both slot values round to 1.0, so the first slot (u0's)
        // is taken, as DeDP's argmax over its literal matrix does
        let mut b = InstanceBuilder::new();
        let v = b.event(2, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        let u2 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 2f64.powi(-100));
        b.utility(v, u1, 2f64.powi(-110));
        b.utility(v, u2, 1.0);
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert!(p.schedule(u0).is_empty());
        assert_eq!(p.schedule(u1).events(), &[v]);
        assert_eq!(p.schedule(u2).events(), &[v]);
        assert_eq!(p, crate::DeDP::new().solve(&inst));
    }

    #[test]
    fn capacity_two_serves_both_users() {
        let mut b = InstanceBuilder::new();
        let v = b.event(2, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.3);
        b.utility(v, u1, 0.8);
        let inst = b.build().unwrap();
        let p = DeDPO::new().solve(&inst);
        assert_eq!(p.load(v), 2);
        assert!((p.omega(&inst) - 1.1).abs() < 1e-6);
    }

    #[test]
    fn augment_never_decreases_omega() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(2, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(2, Point::new(3, 0), iv(10, 20));
        let u0 = b.user(Point::ORIGIN, Cost::new(50));
        let u1 = b.user(Point::new(4, 0), Cost::new(50));
        b.utility(v0, u0, 0.9);
        b.utility(v1, u0, 0.2);
        b.utility(v0, u1, 0.9);
        b.utility(v1, u1, 0.2);
        let inst = b.build().unwrap();
        let base = DeDPO::new().solve(&inst).omega(&inst);
        let plus = DeDPO::new().with_augment().solve(&inst);
        assert!(plus.omega(&inst) >= base - 1e-9);
        assert!(plus.validate(&inst).is_ok());
    }

    #[test]
    fn output_is_always_feasible() {
        // a denser instance with conflicts and tight budgets
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..8i32 {
            let start = i64::from(i % 4) * 10;
            vs.push(b.event(
                2,
                Point::new(i * 2, -i),
                iv(start, start + 12), // heavy overlaps
            ));
        }
        let mut us = Vec::new();
        for j in 0..5i32 {
            us.push(b.user(Point::new(j, j), Cost::new(25)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, ((i * 5 + j) % 10) as f64 / 10.0);
            }
        }
        let inst = b.build().unwrap();
        for p in [DeDPO::new().solve(&inst), DeDPO::new().with_augment().solve(&inst)] {
            p.validate(&inst).expect("feasible planning");
        }
    }
}
