//! The paper's two problem variants (§2, Remarks 1–2), implemented as
//! reductions to the base USEP problem.

use usep::algos::{solve, Algorithm};
use usep::core::{Cost, EventId, InstanceBuilder, Point, TimeInterval, UserId};
use usep::gen::{generate, SyntheticConfig};

fn iv(a: i64, b: i64) -> TimeInterval {
    TimeInterval::new(a, b).unwrap()
}

// ---- Remark 1: per-user candidate sets V_u ----

#[test]
fn restricted_candidates_are_never_assigned() {
    let inst = generate(&SyntheticConfig::tiny().with_users(20), 21);
    // each user may only attend events with matching parity
    let sets: Vec<Vec<EventId>> = (0..inst.num_users())
        .map(|u| {
            inst.event_ids().filter(|v| (v.index() + u) % 2 == 0).collect()
        })
        .collect();
    let restricted = inst.restrict_candidates(&sets);
    for a in Algorithm::PAPER_SET {
        let p = solve(a, &restricted);
        p.validate(&restricted).unwrap();
        for (u, v) in p.assignments() {
            assert!(
                sets[u.index()].contains(&v),
                "{a} assigned {v} outside the candidate set of {u}"
            );
        }
    }
}

#[test]
fn restriction_never_raises_omega() {
    let inst = generate(&SyntheticConfig::tiny().with_users(25), 22);
    let sets: Vec<Vec<EventId>> = (0..inst.num_users())
        .map(|u| inst.event_ids().filter(|v| (v.index() + u) % 3 != 0).collect())
        .collect();
    let restricted = inst.restrict_candidates(&sets);
    let full = solve(Algorithm::DeDPO, &inst).omega(&inst);
    let cut = solve(Algorithm::DeDPO, &restricted).omega(&restricted);
    assert!(cut <= full + 1e-9, "restricting options raised Ω: {cut} > {full}");
}

#[test]
fn empty_candidate_sets_mean_empty_schedules() {
    let inst = generate(&SyntheticConfig::tiny().with_users(10), 23);
    let sets: Vec<Vec<EventId>> = vec![Vec::new(); inst.num_users()];
    let restricted = inst.restrict_candidates(&sets);
    for a in Algorithm::PAPER_SET {
        assert_eq!(solve(a, &restricted).num_assignments(), 0, "{a}");
    }
}

// ---- Remark 2: participation fees ----

/// Two events in sequence, both 3 away from the user, with fees.
fn feed_instance(fee0: u32, fee1: u32, budget: u32) -> usep::core::Instance {
    let mut b = InstanceBuilder::new();
    let v0 = b.event(1, Point::new(3, 0), iv(0, 10));
    let v1 = b.event(1, Point::new(3, 0), iv(10, 20));
    let u = b.user(Point::ORIGIN, Cost::new(budget));
    b.utility(v0, u, 0.9);
    b.utility(v1, u, 0.8);
    b.fee(v0, fee0);
    b.fee(v1, fee1);
    b.build().unwrap()
}

#[test]
fn fees_are_charged_once_per_attended_event() {
    // without fees: 3 + 0 + 3 = 6 travel for both events
    let inst = feed_instance(5, 7, 100);
    let p = solve(Algorithm::DeDPO, &inst);
    let u = UserId(0);
    assert_eq!(p.schedule(u).len(), 2);
    // 3 (to v0) + 5 (fee v0) + 0 (to v1) + 7 (fee v1) + 3 (home) = 18
    assert_eq!(p.schedule(u).total_cost(&inst.freeze(), u), Cost::new(18));
}

#[test]
fn unaffordable_fee_excludes_the_event() {
    // budget 10: travel alone costs 6; fee 7 on v1 busts it
    let inst = feed_instance(0, 7, 10);
    let p = solve(Algorithm::DeDPO, &inst);
    let u = UserId(0);
    assert_eq!(p.schedule(u).events(), &[EventId(0)]);
    assert!(p.validate(&inst).is_ok());
}

#[test]
fn fee_changes_round_trip_and_lemma1() {
    let inst = feed_instance(10, 0, 100);
    let u = UserId(0);
    // round trip to v0: 3 + 10 + 3
    assert_eq!(inst.round_trip(u, EventId(0)), Cost::new(16));
    assert_eq!(inst.round_trip(u, EventId(1)), Cost::new(6));
    assert_eq!(inst.fee(EventId(0)), 10);
    assert_eq!(inst.fee(EventId(1)), 0);
}

#[test]
fn fees_flow_through_event_to_event_costs() {
    let inst = feed_instance(0, 4, 100);
    // v0 → v1 at the same venue: travel 0 + fee 4
    assert_eq!(inst.cost_vv(EventId(0), EventId(1)), Cost::new(4));
}

#[test]
fn all_algorithms_feasible_with_random_fees() {
    let base = generate(&SyntheticConfig::tiny().with_users(20), 24);
    // rebuild with fees assigned deterministically
    let mut b = InstanceBuilder::new();
    for e in base.events() {
        b.event(e.capacity, e.location, e.time);
    }
    for u in base.users() {
        b.user(u.location, u.budget);
    }
    for v in base.event_ids() {
        for u in base.user_ids() {
            b.utility(v, u, base.mu(v, u));
        }
        b.fee(v, (v.index() as u32 * 3) % 10);
    }
    let inst = b.build().unwrap();
    for a in Algorithm::PAPER_SET {
        let p = solve(a, &inst);
        p.validate(&inst).unwrap_or_else(|e| panic!("{a} with fees: {e}"));
    }
    // fee'd planning never beats the fee-free one in Ω terms... is not a
    // theorem (Ω ignores cost), but budgets only tightened, so:
    let with_fees = solve(Algorithm::DeDPO, &inst).omega(&inst);
    let without = solve(Algorithm::DeDPO, &base).omega(&base);
    assert!(with_fees <= without + 1e-6, "fees should not increase Ω");
}

#[test]
fn fees_survive_serde() {
    let inst = feed_instance(5, 7, 100);
    let json = serde_json::to_string(&inst).unwrap();
    let back: usep::core::Instance = serde_json::from_str(&json).unwrap();
    assert_eq!(back, inst);
    assert_eq!(back.fee(EventId(0)), 5);
    assert_eq!(back.cost_vv(EventId(0), EventId(1)), Cost::new(7));
}
