//! The `+RG` augmentation pass (§4.3.2 / §4.4).
//!
//! After a decomposed algorithm finishes, some events retain residual
//! capacity (never fully selected, or freed when step 2 dropped them from
//! earlier users' schedules), and the users those drops happened to still
//! have budget. The pass runs [`RatioGreedy`](crate::RatioGreedy) over
//! `V' = {v : v not full}` with the existing schedules in place,
//! monotonically adding event-user pairs. Since it never removes an
//! assignment, Ω only grows, so DeDPO+RG keeps DeDPO's ½-approximation.

use crate::ratio_greedy::{run_ratio_greedy, Seed};
use usep_core::{EventId, Instance, Planning, UserId};
use usep_guard::Guard;
use usep_trace::{with_span, Counter, Probe, NOOP};

/// Augments `planning` in place with a RatioGreedy pass over the events
/// that still have spare capacity. Returns the number of assignments
/// added.
pub fn augment_with_ratio_greedy(inst: &Instance, planning: &mut Planning) -> usize {
    augment_with_ratio_greedy_guarded(inst, planning, Guard::none(), &NOOP)
}

/// [`augment_with_ratio_greedy`] under a budget, reporting through
/// `probe`: the pass stops at the next checkpoint once `guard` trips.
/// Since it only ever adds assignments, stopping early leaves the
/// planning valid.
pub fn augment_with_ratio_greedy_guarded(
    inst: &Instance,
    planning: &mut Planning,
    guard: &Guard,
    probe: &dyn Probe,
) -> usize {
    let residual: Vec<EventId> = inst
        .event_ids()
        .filter(|&v| planning.remaining_capacity(inst, v) > 0)
        .collect();
    augment_events(inst, planning, &residual, Seed::All, None, guard, probe)
}

/// Runs the RatioGreedy augmentation engine restricted to an explicit
/// event subset, with its heap seeded from `seed`: only pairs `(v, u)`
/// with `v ∈ events` are considered, existing schedules are respected,
/// and assignments are only ever added. Returns the pairs it added, in
/// the order it accepted them.
///
/// `usep-delta` repairs a mutation with it: the engine passes every
/// event with residual capacity and seeds only what the mutation
/// touched, [`Seed::Dirty`]. The planning it repairs had no valid pair
/// left before the mutation, so the pass accepts exactly what a
/// [`Seed::All`] pass over the same events would, while its seed costs
/// a scan per touched event and user instead of one per residual event
/// and user.
pub fn augment_events_with_ratio_greedy(
    inst: &Instance,
    planning: &mut Planning,
    events: &[EventId],
    seed: Seed<'_>,
    probe: &dyn Probe,
) -> Vec<(UserId, EventId)> {
    let mut added = Vec::new();
    augment_events(inst, planning, events, seed, Some(&mut added), Guard::none(), probe);
    added
}

/// The pass behind every public entry: RatioGreedy over `events` under
/// an `augment_rg` span, each added assignment counted as an
/// `augment_swap` (and logged to `accepted`, when given). Returns the
/// number of assignments added.
fn augment_events(
    inst: &Instance,
    planning: &mut Planning,
    events: &[EventId],
    seed: Seed<'_>,
    accepted: Option<&mut Vec<(UserId, EventId)>>,
    guard: &Guard,
    probe: &dyn Probe,
) -> usize {
    let before = planning.num_assignments();
    with_span(probe, "augment_rg", || {
        run_ratio_greedy(inst, planning, events, seed, accepted, guard, probe)
    });
    let added = planning.num_assignments() - before;
    probe.count(Counter::AugmentSwap, added as u64);
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeGreedy, Solver};
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval, UserId};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn fills_residual_capacity_after_a_steal() {
        // vb and vc overlap. Step 1: u0 schedules vb (0.6 > 0.5); u1
        // steals vb (marginal 0.9 - 0.6 = 0.3 beats nothing else). After
        // step 2, u0 is left empty and vc has residual capacity — only
        // the +RG pass recovers μ(vc, u0) = 0.5.
        let mut b = InstanceBuilder::new();
        let vb = b.event(1, Point::ORIGIN, iv(0, 10));
        let vc = b.event(1, Point::ORIGIN, iv(5, 15));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        let u1 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(vb, u0, 0.6);
        b.utility(vc, u0, 0.5);
        b.utility(vb, u1, 0.9);
        let inst = b.build().unwrap();
        let mut p = DeGreedy::new().solve(&inst);
        assert_eq!(p.schedule(u1).events(), &[vb]);
        assert!(p.schedule(u0).is_empty(), "u0 lost vb in step 2");
        let before = p.omega(&inst);
        let added = augment_with_ratio_greedy(&inst, &mut p);
        assert_eq!(added, 1);
        assert_eq!(p.schedule(u0).events(), &[vc]);
        assert!(p.omega(&inst) > before);
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn noop_when_everything_full() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::ORIGIN, iv(0, 10));
        let u0 = b.user(Point::ORIGIN, Cost::new(10));
        b.utility(v, u0, 0.5);
        let inst = b.build().unwrap();
        let mut p = usep_core::Planning::empty(&inst);
        p.assign(&inst, u0, v).unwrap();
        assert_eq!(augment_with_ratio_greedy(&inst, &mut p), 0);
    }

    #[test]
    fn respects_existing_schedules_budgets() {
        // u has already spent most budget; the pass must not overspend
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::new(4, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(6, 0), iv(20, 30));
        let u = b.user(Point::ORIGIN, Cost::new(9));
        b.utility(v0, u, 0.9);
        b.utility(v1, u, 0.9);
        let inst = b.build().unwrap();
        let mut p = usep_core::Planning::empty(&inst);
        p.assign(&inst, u, v0).unwrap(); // spends 8 of 9
        augment_with_ratio_greedy(&inst, &mut p);
        assert!(!p.schedule(u).contains(v1));
        assert!(p.validate(&inst).is_ok());
    }

    #[test]
    fn augmented_solver_matches_manual_pass() {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..4i32 {
            vs.push(b.event(2, Point::new(i, 0), iv(i64::from(i) * 10, i64::from(i) * 10 + 9)));
        }
        for j in 0..3i32 {
            b.user(Point::new(j, 1), Cost::new(20));
        }
        for (i, &v) in vs.iter().enumerate() {
            for u in 0..3u32 {
                b.utility(v, UserId(u), ((i as u32 * 3 + u) % 5 + 1) as f64 / 5.0);
            }
        }
        let inst = b.build().unwrap();
        let auto = DeGreedy::new().with_augment().solve(&inst);
        let mut manual = DeGreedy::new().solve(&inst);
        augment_with_ratio_greedy(&inst, &mut manual);
        assert_eq!(auto, manual);
    }
}
