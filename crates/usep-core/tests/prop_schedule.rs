//! Property tests on the core model: schedules, incremental costs,
//! plannings and the temporal index, driven by randomized instances.

use proptest::prelude::*;
use usep_core::{
    Cost, EventId, InsertError, Instance, InstanceBuilder, Planning, Point, Schedule,
    TimeInterval, UserId,
};

/// Strategy: a random grid instance with `nv` events and `nu` users.
fn arb_instance(max_v: usize, max_u: usize) -> impl Strategy<Value = Instance> {
    let ev = (0i64..60, 1i64..15, 0i32..20, 0i32..20, 1u32..4);
    let us = (0i32..20, 0i32..20, 0u32..80);
    (
        prop::collection::vec(ev, 1..=max_v),
        prop::collection::vec(us, 1..=max_u),
        any::<u64>(),
    )
        .prop_map(|(events, users, mu_seed)| {
            let mut b = InstanceBuilder::new();
            for &(start, dur, x, y, cap) in &events {
                b.event(cap, Point::new(x, y), TimeInterval::new(start, start + dur).unwrap());
            }
            for &(x, y, budget) in &users {
                b.user(Point::new(x, y), Cost::new(budget));
            }
            // deterministic pseudo-random utilities from the seed
            let mut s = mu_seed | 1;
            for v in 0..events.len() as u32 {
                for u in 0..users.len() as u32 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let m = ((s >> 33) % 11) as f64 / 10.0;
                    b.utility(EventId(v), UserId(u), m);
                }
            }
            b.build().unwrap()
        })
}

/// Strategy: like [`arb_instance`], but with event times on a coarse
/// 5-unit grid so exactly-touching endpoints (`end == next start`) and
/// exactly-coinciding intervals are routine rather than coincidental —
/// the edge cases the conflict bitmask must get right.
fn arb_coarse_time_instance(max_v: usize, max_u: usize) -> impl Strategy<Value = Instance> {
    let ev = (0i64..8, 1i64..4, 0i32..20, 0i32..20, 1u32..4);
    let us = (0i32..20, 0i32..20, 0u32..80);
    (
        prop::collection::vec(ev, 1..=max_v),
        prop::collection::vec(us, 1..=max_u),
        any::<u64>(),
    )
        .prop_map(|(events, users, mu_seed)| {
            let mut b = InstanceBuilder::new();
            for &(slot, dur, x, y, cap) in &events {
                let start = slot * 5;
                b.event(cap, Point::new(x, y), TimeInterval::new(start, start + dur * 5).unwrap());
            }
            for &(x, y, budget) in &users {
                b.user(Point::new(x, y), Cost::new(budget));
            }
            let mut s = mu_seed | 1;
            for v in 0..events.len() as u32 {
                for u in 0..users.len() as u32 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let m = ((s >> 33) % 11) as f64 / 10.0;
                    b.utility(EventId(v), UserId(u), m);
                }
            }
            b.build().unwrap()
        })
}

/// From-scratch round-trip cost of a grid schedule: home → first event,
/// consecutive event legs, last event → home, all as raw Manhattan
/// distances plus per-event fees on the inbound leg (Remark 2).
/// Deliberately shares nothing with `Schedule::total_cost`'s Eq.-3
/// bookkeeping — this is the independent recomputation the incremental
/// path is audited against.
fn raw_round_trip(inst: &Instance, u: UserId, events: &[EventId]) -> u64 {
    let (Some(&first), Some(&last)) = (events.first(), events.last()) else {
        return 0;
    };
    let home = inst.user(u).location;
    let fee = |v: EventId| inst.fees().get(v.index()).copied().unwrap_or(0) as u64;
    let mut total = home.manhattan(inst.event(first).location) + fee(first);
    for w in events.windows(2) {
        total += inst.event(w[0]).location.manhattan(inst.event(w[1]).location) + fee(w[1]);
    }
    total + inst.event(last).location.manhattan(home)
}

/// The Def.-1 time check by intervals alone, sharing nothing with the
/// conflict bitmask: `None` when `v` is already in `events` or overlaps
/// one of them, else the number of scheduled events that precede it —
/// its insertion position in a time-ordered, non-overlapping schedule.
fn interval_insertion_point(inst: &Instance, events: &[EventId], v: EventId) -> Option<usize> {
    let t = inst.event(v).time;
    if events.iter().any(|&e| e == v || inst.event(e).time.overlaps(t)) {
        return None;
    }
    Some(events.iter().filter(|&&e| inst.event(e).time.precedes(t)).count())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every feasible insertion — under time-ascending (pure tail),
    /// time-descending (pure head) and shuffled insertion orders — the
    /// incrementally maintained total cost equals the from-scratch
    /// round-trip recomputation. This pins Eq. 3's bookkeeping to ground
    /// truth rather than to its own delta.
    #[test]
    fn incremental_cost_matches_from_scratch_roundtrip(
        inst in arb_instance(8, 3),
        order in 0u8..3,
        shuffle in any::<u64>(),
    ) {
        let u = UserId(0);
        let mut evs: Vec<EventId> = inst.event_ids().collect();
        match order {
            // ascending start times: every insertion lands at the tail
            0 => evs.sort_by_key(|&v| inst.event(v).time.start()),
            // descending start times: every insertion lands at the head
            1 => evs.sort_by_key(|&v| std::cmp::Reverse(inst.event(v).time.start())),
            _ => {
                let mut seed = shuffle | 1;
                for i in (1..evs.len()).rev() {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    evs.swap(i, (seed >> 33) as usize % (i + 1));
                }
            }
        }
        let flat = inst.freeze();
        let mut s = Schedule::new();
        for v in evs {
            if s.try_insert(&flat, u, v).is_ok() {
                let expected = raw_round_trip(&inst, u, s.events());
                let got = s.total_cost(&flat, u);
                prop_assert!(got.is_finite());
                prop_assert_eq!(u64::from(got.value()), expected);
            }
        }
    }

    /// inc_cost (Eq. 3) is exactly the total-cost delta of the insertion,
    /// for every feasible insertion in any order.
    #[test]
    fn inc_cost_equals_total_cost_delta(inst in arb_instance(8, 3), order in any::<u64>()) {
        let u = UserId(0);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        let mut evs: Vec<EventId> = inst.event_ids().collect();
        // pseudo-shuffle
        let mut seed = order | 1;
        for i in (1..evs.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            evs.swap(i, (seed >> 33) as usize % (i + 1));
        }
        for v in evs {
            let before = s.total_cost(&flat, u);
            let inc = s.inc_cost(&flat, u, v);
            match s.try_insert(&flat, u, v) {
                Ok(_) => {
                    prop_assert!(inc.is_finite());
                    prop_assert_eq!(s.total_cost(&flat, u), before.add(inc));
                    prop_assert!(s.check(&inst, u).is_ok());
                }
                Err(InsertError::OverBudget) => {
                    prop_assert!(inc.is_finite());
                    prop_assert!(before.add(inc) > inst.user(u).budget);
                }
                Err(_) => prop_assert!(inc.is_infinite()),
            }
        }
    }

    /// Removal keeps a feasible schedule feasible and never increases the
    /// travel cost (triangle inequality).
    #[test]
    fn removal_is_safe(inst in arb_instance(8, 2), pick in any::<usize>()) {
        let u = UserId(0);
        let flat = inst.freeze();
        let mut s = Schedule::new();
        for v in inst.event_ids() {
            let _ = s.try_insert(&flat, u, v);
        }
        prop_assume!(!s.is_empty());
        let before = s.total_cost(&flat, u);
        let victim = s.events()[pick % s.len()];
        prop_assert!(s.remove(victim));
        prop_assert!(s.check(&inst, u).is_ok());
        prop_assert!(s.total_cost(&flat, u) <= before);
    }

    /// A planning mutated by any assign/unassign sequence always
    /// validates.
    #[test]
    fn planning_mutations_stay_valid(
        inst in arb_instance(6, 3),
        ops in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..40),
    ) {
        let mut p = Planning::empty(&inst);
        for (v, u, insert) in ops {
            let v = EventId(v % inst.num_events() as u32);
            let u = UserId(u % inst.num_users() as u32);
            if insert {
                let _ = p.assign(&inst, u, v);
            } else {
                let _ = p.unassign(u, v);
            }
            prop_assert!(p.validate(&inst).is_ok());
        }
    }

    /// The temporal index orders by end time and its `l_of` prefix
    /// matches a naive scan.
    #[test]
    fn temporal_index_invariants(inst in arb_instance(10, 1)) {
        let idx = inst.temporal();
        for p in 1..idx.len() {
            let (a, b) = (idx.event_at(p - 1), idx.event_at(p));
            prop_assert!(
                inst.event(EventId(a)).time.end() <= inst.event(EventId(b)).time.end()
            );
        }
        for p in 0..idx.len() {
            let ti = inst.event(EventId(idx.event_at(p))).time;
            let naive = (0..idx.len())
                .filter(|&q| inst.event(EventId(idx.event_at(q))).time.end() <= ti.start())
                .count();
            prop_assert_eq!(idx.l_of(p), naive);
        }
    }

    /// Grid event-event costs: finite implies temporal precedence, and
    /// the cost matrix respects the triangle inequality on finite chains.
    #[test]
    fn event_costs_respect_time_and_triangle(inst in arb_instance(8, 1)) {
        let n = inst.num_events() as u32;
        for i in 0..n {
            for j in 0..n {
                let c = inst.cost_vv(EventId(i), EventId(j));
                if c.is_finite() {
                    prop_assert!(inst.event(EventId(i)).time.precedes(inst.event(EventId(j)).time));
                }
                for k in 0..n {
                    let ik = inst.cost_vv(EventId(i), EventId(k));
                    let ij = inst.cost_vv(EventId(i), EventId(j));
                    let jk = inst.cost_vv(EventId(j), EventId(k));
                    if ik.is_finite() && ij.is_finite() && jk.is_finite() {
                        prop_assert!(ik <= ij.add(jk));
                    }
                }
            }
        }
    }

    /// The flat view's bitmask feasibility must agree with a plain
    /// interval scan on every query — `insertion_point`, the raw
    /// word-AND occupancy probe, and full `try_insert` drives (the same
    /// position, or `Duplicate` / `TimeConflict` exactly when the scan
    /// rejects) — on random instances where exactly-touching endpoints
    /// are common and the op stream retries already-scheduled events
    /// (duplicate case, the diagonal bit).
    #[test]
    fn bitmask_feasibility_matches_interval_logic(
        inst in arb_coarse_time_instance(10, 2),
        ops in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let flat = inst.freeze();
        let u = UserId(0);
        let mut s = Schedule::new();
        for op in ops {
            // mod keeps re-picking the same events, so duplicate
            // insertion attempts against a populated schedule occur
            let v = EventId(op % inst.num_events() as u32);
            let events: Vec<EventId> = s.events().to_vec();
            let expected = interval_insertion_point(&inst, &events, v);
            prop_assert_eq!(flat.insertion_point(&events, v), expected);
            let mut occupied = vec![0u64; flat.words()];
            for &e in &events {
                occupied[e.index() / 64] |= 1 << (e.index() % 64);
            }
            prop_assert_eq!(flat.conflicts_with_occupied(&occupied, v), expected.is_none());
            match (expected, s.try_insert(&flat, u, v)) {
                (None, got) => {
                    let kind =
                        if events.contains(&v) { InsertError::Duplicate } else { InsertError::TimeConflict };
                    prop_assert_eq!(got, Err(kind));
                }
                (Some(pos), Ok(got)) => prop_assert_eq!(got, pos),
                (Some(_), Err(e)) => prop_assert!(
                    matches!(e, InsertError::Unreachable | InsertError::OverBudget),
                    "time-feasible insertion rejected as {:?}", e
                ),
            }
        }
    }

    /// Instances survive a serde round trip with identical behaviour.
    #[test]
    fn instance_serde_roundtrip(inst in arb_instance(6, 3)) {
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &inst);
        for i in inst.event_ids() {
            for j in inst.event_ids() {
                prop_assert_eq!(back.cost_vv(i, j), inst.cost_vv(i, j));
            }
        }
    }

    /// Instances survive a binary-codec round trip bit-exactly.
    #[test]
    fn instance_codec_roundtrip(inst in arb_instance(6, 3)) {
        let bytes = usep_core::codec::encode(&inst);
        let back = usep_core::codec::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &inst);
    }

    /// No prefix of an encoded instance decodes successfully — truncation
    /// is always detected, never a panic or a silent partial instance.
    #[test]
    fn codec_truncations_always_error(inst in arb_instance(4, 2), frac in 0.0f64..1.0) {
        let bytes = usep_core::codec::encode(&inst);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(usep_core::codec::decode(&bytes[..cut]).is_err());
    }
}
