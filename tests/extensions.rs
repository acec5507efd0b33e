//! End-to-end coverage of the beyond-the-paper extensions through the
//! facade crate: upper bounds, local search, max-min fairness, the
//! binary codec and the standalone single-user DP.

use usep::algos::{
    bounds, local_search, optimal_user_schedule, solve, Algorithm, MaxMinGreedy, Solver,
};
use usep::core::{codec, FairnessStats, Schedule, UserId};
use usep::gen::{generate, SyntheticConfig};

fn instance() -> usep::core::Instance {
    generate(&SyntheticConfig::tiny().with_users(30).with_capacity_mean(2), 1234)
}

#[test]
fn upper_bound_certifies_solution_quality() {
    let inst = instance();
    let ub = bounds::best_upper_bound(&inst);
    for a in Algorithm::PAPER_SET {
        let omega = solve(a, &inst).omega(&inst);
        assert!(omega <= ub + 1e-9, "{a}: Ω {omega} above the bound {ub}");
    }
    // the bound is not vacuous: DeDPO+RG gets a meaningful fraction
    let best = solve(Algorithm::DeDPORG, &inst).omega(&inst);
    assert!(best / ub > 0.4, "bound looks vacuous: ratio {}", best / ub);
}

#[test]
fn local_search_pipeline_end_to_end() {
    let inst = instance();
    let mut p = solve(Algorithm::DeGreedyRG, &inst);
    let before = p.omega(&inst);
    let moves = local_search::improve(&inst, &mut p, 8);
    p.validate(&inst).unwrap();
    assert!(p.omega(&inst) >= before - 1e-9);
    // after convergence another call is a no-op
    if moves > 0 {
        assert_eq!(local_search::improve(&inst, &mut p, 8), 0);
    }
    // and the result still respects the upper bound
    assert!(p.omega(&inst) <= bounds::best_upper_bound(&inst) + 1e-9);
}

#[test]
fn maxmin_is_feasible_and_measurably_fairer_under_scarcity() {
    let inst = instance();
    let mm = MaxMinGreedy.solve(&inst);
    mm.validate(&inst).unwrap();
    let f_mm = FairnessStats::compute(&inst, &mm);
    let f_dp = FairnessStats::compute(&inst, &solve(Algorithm::DeDPO, &inst));
    assert!(
        f_mm.served_fraction >= f_dp.served_fraction - 0.05,
        "maxmin served {} vs DeDPO {}",
        f_mm.served_fraction,
        f_dp.served_fraction
    );
}

#[test]
fn binary_codec_roundtrips_generated_instances() {
    for seed in [1u64, 2, 3] {
        let inst = generate(&SyntheticConfig::tiny().with_users(20), seed)
            .restrict_candidates(
                &(0..20)
                    .map(|u| {
                        (0..8u32)
                            .filter(|v| (v + u) % 2 == 0)
                            .map(usep::core::EventId)
                            .collect()
                    })
                    .collect::<Vec<_>>(),
            );
        let back = codec::decode(&codec::encode(&inst)).unwrap();
        assert_eq!(back, inst);
        assert_eq!(
            solve(Algorithm::DeDPO, &back),
            solve(Algorithm::DeDPO, &inst),
            "seed {seed}: codec changed solver behaviour"
        );
    }
}

#[test]
fn single_user_dp_is_a_usable_day_planner() {
    let inst = instance();
    let u = UserId(0);
    let cands: Vec<_> = inst
        .event_ids()
        .map(|v| (v, inst.mu(v, u)))
        .filter(|&(_, m)| m > 0.0)
        .collect();
    let (events, score) = optimal_user_schedule(&inst, u, &cands);
    let sched = Schedule::from_time_ordered(&inst, events);
    assert!(sched.check(&inst, u).is_ok());
    assert!((sched.utility(&inst.freeze(), u) - score).abs() < 1e-9);
    // the itinerary renders without panicking and mentions the user
    let text = sched.describe(&inst, u);
    assert!(text.contains("u0"));
    // it is at least as good as what any full planning gives this user
    for a in Algorithm::PAPER_SET {
        let got = solve(a, &inst).schedule(u).utility(&inst.freeze(), u);
        assert!(got <= score + 1e-9, "{a} gave u0 more than their optimum?");
    }
}
