//! Metamorphic and determinism properties of the delta engine.
//!
//! The engine's repair pass is augmentation-stable: running it on a
//! planning it just produced adds nothing. Combined with the patch
//! layer's exact-inverse structural patches (append-at-tail /
//! swap-remove) this gives a strong metamorphic identity: applying a
//! mutation and its inverse on the repair path restores the *entire*
//! warm state — instance bytes and planning bytes — to what it was.
//! These tests pin that identity, plus bit-for-bit determinism of the
//! repair path across worker-pool sizes.

use usep_core::{Point, TimeInterval};
use usep_delta::{
    generate_trace, run_trace, no_extra, DeltaConfig, DeltaEngine, MuEntry, Mutation,
    RefereeConfig, RepairKind, TraceGenConfig,
};
use usep_trace::NOOP;

/// Repair-path-only engine: fallback disabled so every mutation takes
/// the bounded-repair route the metamorphic identity relies on.
fn repair_only(seed: u64) -> DeltaEngine {
    let trace = generate_trace(&TraceGenConfig { seed, mutations: 0, events: 7, users: 10 });
    let cfg = DeltaConfig { fallback_threshold: f64::INFINITY, ..DeltaConfig::default() };
    DeltaEngine::new(trace.instance, cfg, &NOOP)
}

fn iv(a: i64, b: i64) -> TimeInterval {
    TimeInterval::new(a, b).unwrap()
}

#[test]
fn event_add_then_remove_restores_instance_and_planning() {
    for seed in 0..12u64 {
        let mut e = repair_only(seed);
        let inst_before = e.instance().clone();
        let planning_before = e.planning().clone();

        let mu: Vec<MuEntry> =
            e.live_users().iter().map(|&u| MuEntry { id: u, mu: 0.6 }).collect();
        let add = Mutation::EventAdd {
            capacity: 2,
            location: Point::new(3, 4),
            time: iv(200, 210), // conflict-free slot: pure augmentation
            fee: 0,
            mu,
        };
        let out = e.apply(&add, &NOOP).unwrap();
        assert_eq!(out.kind, RepairKind::Repaired, "seed {seed}");
        let new_stable = *e.live_events().last().unwrap();

        let out = e.apply(&Mutation::EventRemove { event: new_stable }, &NOOP).unwrap();
        assert_eq!(out.kind, RepairKind::Repaired, "seed {seed}");

        assert_eq!(*e.instance(), inst_before, "seed {seed}: instance not restored");
        assert_eq!(*e.planning(), planning_before, "seed {seed}: planning not restored");
        assert!(e.planning().validate(e.instance()).is_ok());
    }
}

#[test]
fn capacity_up_then_down_restores_planning() {
    for seed in 20..32u64 {
        let mut e = repair_only(seed);
        let stable = e.live_events()[0];
        let v = e.dense_event(stable).unwrap();
        let original = e.instance().event(v).capacity;

        let inst_before = e.instance().clone();
        let planning_before = e.planning().clone();

        e.apply(&Mutation::CapacityChange { event: stable, capacity: original + 3 }, &NOOP)
            .unwrap();
        e.apply(&Mutation::CapacityChange { event: stable, capacity: original }, &NOOP).unwrap();

        assert_eq!(*e.instance(), inst_before, "seed {seed}: instance not restored");
        // LIFO eviction removes exactly the assignments the up-repair
        // added; augmentation-stability means nothing else moves
        assert_eq!(*e.planning(), planning_before, "seed {seed}: planning not restored");
        assert!(e.planning().validate(e.instance()).is_ok());
    }
}

#[test]
fn user_arrive_then_depart_restores_instance_and_planning() {
    for seed in 40..48u64 {
        let mut e = repair_only(seed);
        let inst_before = e.instance().clone();
        let planning_before = e.planning().clone();

        let mu: Vec<MuEntry> =
            e.live_events().iter().map(|&v| MuEntry { id: v, mu: 0.5 }).collect();
        e.apply(&Mutation::UserArrive { location: Point::new(2, 2), budget: 90, mu }, &NOOP)
            .unwrap();
        let new_stable = *e.live_users().last().unwrap();
        e.apply(&Mutation::UserDepart { user: new_stable }, &NOOP).unwrap();

        assert_eq!(*e.instance(), inst_before, "seed {seed}: instance not restored");
        assert_eq!(*e.planning(), planning_before, "seed {seed}: planning not restored");
    }
}

#[test]
fn mu_zero_then_restore_keeps_planning_valid_and_omega_monotone() {
    // μ-zeroing is NOT an exact inverse pair: the repair pass may hand
    // the freed slot to a different pair, and greedy repairs don't undo
    // themselves — that irrecoverable churn is exactly what the drift
    // metric accumulates. The metamorphic property is therefore
    // weaker: validity after both steps, and Ω monotone from the
    // post-zeroing state once μ is restored (the restore touches an
    // unassigned cell, and the repair pass only ever adds).
    for seed in 60..66u64 {
        let mut e = repair_only(seed);
        // find an assigned pair
        let pair = e.live_users().iter().copied().find_map(|su| {
            let u = e.dense_user(su).unwrap();
            let events = e.planning().schedule(u).events();
            events.first().map(|&v| (su, e.live_events()[v.index()]))
        });
        let Some((su, sv)) = pair else { continue };
        let v = e.dense_event(sv).unwrap();
        let u = e.dense_user(su).unwrap();
        let old_mu = e.instance().mu(v, u);

        let out = e.apply(&Mutation::MuUpdate { event: sv, user: su, mu: 0.0 }, &NOOP).unwrap();
        assert_eq!(out.evicted, 1, "seed {seed}: the assigned pair must be released");
        assert!(e.planning().validate(e.instance()).is_ok(), "seed {seed}");
        assert!(!e.planning().schedule(u).contains(v), "seed {seed}: pair still assigned");
        assert!(e.drift() > 0.0, "seed {seed}: surviving-user eviction must accrue churn");
        let omega_after_zero = e.omega();

        e.apply(&Mutation::MuUpdate { event: sv, user: su, mu: old_mu as f32 }, &NOOP).unwrap();
        assert!(e.planning().validate(e.instance()).is_ok(), "seed {seed}");
        assert!(
            e.omega() + 1e-9 >= omega_after_zero,
            "seed {seed}: Ω regressed after restore {} -> {}",
            omega_after_zero,
            e.omega()
        );
    }
}

#[test]
fn repair_path_is_deterministic_across_thread_counts() {
    // The repair pass and the fallback solver run on the calling
    // thread, so the worker-count setting must not reach them:
    // replaying the same trace at 1 and 4 threads must produce
    // byte-identical plannings.
    let trace = generate_trace(&TraceGenConfig { seed: 7, mutations: 35, events: 8, users: 12 });

    let run = |threads: usize| {
        usep_par::set_threads(threads);
        let mut e = DeltaEngine::new(trace.instance.clone(), DeltaConfig::default(), &NOOP);
        let mut outcomes = Vec::new();
        for m in &trace.mutations {
            let out = e.apply(m, &NOOP).unwrap();
            outcomes.push((out.kind, out.evicted, out.added));
        }
        usep_par::set_threads(0);
        (e.planning().clone(), e.instance().clone(), e.stats(), outcomes)
    };

    let (p1, i1, s1, o1) = run(1);
    let (p4, i4, s4, o4) = run(4);
    assert_eq!(i1, i4, "instances diverged across thread counts");
    assert_eq!(p1, p4, "plannings diverged across thread counts");
    assert_eq!(s1, s4, "stats diverged across thread counts");
    assert_eq!(o1, o4, "per-mutation outcomes diverged across thread counts");
}

#[test]
fn full_replay_is_deterministic_run_to_run() {
    let trace = generate_trace(&TraceGenConfig { seed: 9, mutations: 30, events: 6, users: 9 });
    let cfg = RefereeConfig::default();
    let a = run_trace(&trace, &cfg, &NOOP, &no_extra).unwrap();
    let b = run_trace(&trace, &cfg, &NOOP, &no_extra).unwrap();
    assert_eq!(a.final_omega.to_bits(), b.final_omega.to_bits());
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.fallbacks, b.fallbacks);
}

#[test]
fn serialized_traces_replay_identically() {
    let trace = generate_trace(&TraceGenConfig { seed: 11, mutations: 20, events: 5, users: 7 });
    let json = serde_json::to_string(&trace).unwrap();
    let back: usep_delta::MutationTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back.mutations, trace.mutations);
    let cfg = RefereeConfig::default();
    let a = run_trace(&trace, &cfg, &NOOP, &no_extra).unwrap();
    let b = run_trace(&back, &cfg, &NOOP, &no_extra).unwrap();
    assert_eq!(a.final_omega.to_bits(), b.final_omega.to_bits());
}
