//! Degenerate-instance regression matrix and bounded-solve behavior.
//!
//! Every algorithm (and the guarded orchestrator) must handle instances
//! with no events, no users, or neither — returning an empty but
//! constraint-valid planning rather than panicking — and a bounded
//! solve on such instances must still tag its outcome correctly.

use std::time::Duration;
use usep::algos::{
    local_search, solve, solve_guarded, Algorithm, Guard, GuardedSolver, SolveBudget,
};
use usep::core::{Cost, Instance, InstanceBuilder, Point, TimeInterval};
use usep::trace::NOOP;

const EVERY_ALGORITHM: [Algorithm; 8] = [
    Algorithm::RatioGreedy,
    Algorithm::DeDP,
    Algorithm::DeDPO,
    Algorithm::DeDPORG,
    Algorithm::DeGreedy,
    Algorithm::DeGreedyRG,
    Algorithm::SingleEventGreedy,
    Algorithm::UtilityGreedy,
];

fn no_events_no_users() -> Instance {
    InstanceBuilder::new().build().unwrap()
}

fn events_only() -> Instance {
    let mut b = InstanceBuilder::new();
    for i in 0..3 {
        b.event(2, Point::new(i, 0), TimeInterval::new(0, 5).unwrap());
    }
    b.build().unwrap()
}

fn users_only() -> Instance {
    let mut b = InstanceBuilder::new();
    for j in 0..4 {
        b.user(Point::new(j, 0), Cost::new(50));
    }
    b.build().unwrap()
}

fn degenerate_instances() -> [(&'static str, Instance); 3] {
    [
        ("no events, no users", no_events_no_users()),
        ("events only", events_only()),
        ("users only", users_only()),
    ]
}

#[test]
fn every_algorithm_survives_degenerate_instances() {
    for (label, inst) in degenerate_instances() {
        for a in EVERY_ALGORITHM {
            let p = solve(a, &inst);
            p.validate(&inst)
                .unwrap_or_else(|e| panic!("{a} on '{label}': infeasible: {e}"));
            assert_eq!(p.num_assignments(), 0, "{a} on '{label}'");
            assert_eq!(p.omega(&inst), 0.0, "{a} on '{label}'");
        }
    }
}

#[test]
fn guarded_trait_path_survives_degenerate_instances() {
    for (label, inst) in degenerate_instances() {
        for a in EVERY_ALGORITHM {
            let gs = solve_guarded(a, &inst, Guard::none(), &NOOP);
            assert!(gs.outcome.is_complete(), "{a} on '{label}': {:?}", gs.outcome);
            assert!(gs.planning.validate(&inst).is_ok(), "{a} on '{label}'");
        }
    }
}

#[test]
fn guarded_orchestrator_survives_degenerate_instances() {
    for (label, inst) in degenerate_instances() {
        for a in EVERY_ALGORITHM {
            // unlimited budget: completes, never degrades
            let r = GuardedSolver::new(a, SolveBudget::unlimited()).solve(&inst);
            assert!(r.outcome.is_complete(), "{a} on '{label}'");
            assert!(!r.degraded(), "{a} on '{label}'");
            assert_eq!(r.executed, a, "{a} on '{label}'");

            // an already-expired deadline: truncated, still valid, and
            // no tier ran, so the requested algorithm is the one named
            let expired = SolveBudget::unlimited().with_deadline(Duration::ZERO);
            let r = GuardedSolver::new(a, expired).solve(&inst);
            assert!(!r.outcome.is_complete(), "{a} on '{label}'");
            assert_eq!(r.executed, a, "{a} on '{label}'");
            assert!(!r.degraded(), "{a} on '{label}'");
            assert!(r.planning.validate(&inst).is_ok(), "{a} on '{label}'");
            assert_eq!(r.planning.num_assignments(), 0, "{a} on '{label}'");
        }
    }
}

#[test]
fn post_passes_survive_degenerate_instances() {
    for (_, inst) in degenerate_instances() {
        let mut p = solve(Algorithm::RatioGreedy, &inst);
        assert_eq!(local_search::improve(&inst, &mut p, 3), 0);
        assert!(p.validate(&inst).is_ok());
        let ub = usep::algos::bounds::best_upper_bound(&inst);
        assert!(ub >= 0.0, "bound {ub} negative");
    }
}

#[test]
fn zero_budget_users_are_never_assigned() {
    // users who cannot afford any travel: algorithms must not assign
    // them, not crash on them
    let mut b = InstanceBuilder::new();
    let v = b.event(3, Point::new(5, 5), TimeInterval::new(0, 10).unwrap());
    for j in 0..3 {
        b.user(Point::new(0, j), Cost::new(0));
    }
    for j in 0..3 {
        b.utility(v, usep::core::UserId(j), 0.9);
    }
    let inst = b.build().unwrap();
    for a in EVERY_ALGORITHM {
        let p = solve(a, &inst);
        assert!(p.validate(&inst).is_ok(), "{a}");
        assert_eq!(p.num_assignments(), 0, "{a}: assigned an unaffordable event");
    }
}
