//! Differential test of RatioGreedy's cached event refresh against a
//! reference Algorithm 1 that rescans every user at every refresh.
//!
//! The engine answers most event refreshes from a per-event candidate
//! list and falls back to a full scan only when the list cannot vouch
//! for its head. That is exact only if every answer equals the full
//! scan's argmax, so this file re-implements Algorithm 1 from scratch —
//! sequential, over the public `usep-core` object model (`Instance`,
//! `Planning`, `Schedule`), no flat view, no lists, no parallelism —
//! and asserts byte-identical plannings for plain RatioGreedy, the
//! DeDPO+RG and DeGreedy+RG augmentation passes, and
//! `augment_events_with_ratio_greedy` on random event subsets over
//! non-empty starting plannings, at 1 and 4 threads.
//!
//! Plannings alone are a weak witness: the user side of the heap also
//! offers the global best pair, so an event refresh that answers too
//! *low* (or not at all) often leaves the planning unchanged. The heap
//! traffic — pushes, pops and stale pops — moves with every answer, so
//! it is compared too.
//!
//! One more case checks `Seed::Dirty`, the seed of a `usep-delta`
//! repair: a RatioGreedy planning, which has no valid pair left, is
//! edited by releases, capacity raises and μ raises from zero, and a
//! pass seeded with exactly the events and users those touched must
//! give the fully seeded pass's planning. Its heap traffic differs by
//! design.
//!
//! The seeded cases use capacities above the engine's shortest list and
//! at least eight users per list slot, so during their solves lists run
//! dry and floors overtake list heads, the two triggers of a rescan. The `#[ignore]`d case runs
//! the same differential on the Fig. 4 benchmark instances; run it in
//! release:
//!
//! ```sh
//! cargo test --release -p usep-algos --test ratio_greedy_reference -- --ignored
//! ```

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};
use usep_algos::{
    augment_events_with_ratio_greedy, augment_with_ratio_greedy, solve, solve_with_probe,
    Algorithm, Seed,
};
use usep_core::{Cost, EventId, FlatInstance, Instance, Planning, UserId};
use usep_gen::{generate, SyntheticConfig};
use usep_trace::{Counter, TraceSink, NOOP};

/// The thread count is a process-global override; tests that flip it
/// hold this lock.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn at_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    usep_par::set_threads(n);
    let r = f();
    usep_par::set_threads(0);
    r
}

/// One heap entry of the reference: a pair keyed for the max-heap, the
/// side it was computed for, and that side's generation at the time.
#[derive(Clone, Copy, Debug)]
struct Entry {
    ratio: f64,
    inc: Cost,
    v: EventId,
    u: UserId,
    for_event: bool,
    gen: u64,
}

impl Ord for Entry {
    /// The paper's order: larger ratio first, then smaller incremental
    /// cost; ids (event, then user, smaller first) make it total.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then(other.inc.cmp(&self.inc))
            .then(other.v.cmp(&self.v))
            .then(other.u.cmp(&self.u))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Eq. (2)–(3) validity and key of adding `v` to `u`'s schedule:
/// `Some((ratio, inc))` when capacity, utility, time, reachability and
/// budget all allow it.
fn key(
    inst: &Instance,
    flat: &FlatInstance,
    planning: &Planning,
    v: EventId,
    u: UserId,
) -> Option<(f64, Cost)> {
    let mu = inst.mu(v, u);
    if planning.remaining_capacity(inst, v) == 0 || mu <= 0.0 {
        return None;
    }
    let schedule = planning.schedule(u);
    let pos = schedule.insertion_point(flat, v)?;
    let inc = schedule.inc_cost_at(flat, u, v, pos);
    if inc.is_infinite() || schedule.total_cost(flat, u).add(inc) > inst.user(u).budget {
        return None;
    }
    let ratio = if inc == Cost::ZERO { f64::INFINITY } else { mu / inc.as_f64() };
    Some((ratio, inc))
}

/// Whether key `a` (for id `ia`) ranks strictly before key `b` (for id
/// `ib`): ratio descending, then incremental cost, then id ascending.
fn ahead<I: Ord>(a: (f64, Cost), ia: I, b: (f64, Cost), ib: I) -> bool {
    a.0 > b.0 || (a.0 == b.0 && (a.1 < b.1 || (a.1 == b.1 && ia < ib)))
}

/// Heap pushes, pops and stale pops of one run.
type Traffic = [u64; 3];

/// The engine's heap traffic as its trace counters report it.
fn traffic(sink: &TraceSink) -> Traffic {
    [Counter::HeapPush, Counter::HeapPop, Counter::HeapPopStale].map(|c| sink.counter(c))
}

/// Algorithm 1, run over `events` on top of `planning`'s schedules,
/// with a full rescan at every refresh.
struct Reference<'a> {
    inst: &'a Instance,
    flat: Arc<FlatInstance>,
    planning: Planning,
    events: &'a [EventId],
    heap: BinaryHeap<Entry>,
    traffic: Traffic,
    gen: u64,
    event_gen: Vec<u64>,
    /// Each event's current best user, as last pushed.
    event_best: Vec<Option<UserId>>,
    user_gen: Vec<u64>,
}

impl<'a> Reference<'a> {
    fn run(inst: &'a Instance, planning: Planning, events: &'a [EventId]) -> (Planning, Traffic) {
        let mut r = Reference {
            inst,
            flat: inst.freeze(),
            planning,
            events,
            heap: BinaryHeap::new(),
            traffic: [0; 3],
            gen: 0,
            event_gen: vec![0; inst.num_events()],
            event_best: vec![None; inst.num_events()],
            user_gen: vec![0; inst.num_users()],
        };
        for &v in events {
            r.refresh_event(v);
        }
        for u in inst.user_ids() {
            r.refresh_user(u);
        }
        while let Some(e) = r.heap.pop() {
            r.traffic[1] += 1;
            let live = if e.for_event {
                r.event_gen[e.v.index()] == e.gen
            } else {
                r.user_gen[e.u.index()] == e.gen
            };
            if !live {
                r.traffic[2] += 1;
                continue;
            }
            let added = key(inst, &r.flat, &r.planning, e.v, e.u).is_some();
            if added {
                r.planning.assign(inst, e.u, e.v).expect("valid pair assigns");
            }
            r.refresh_event(e.v);
            r.refresh_user(e.u);
            if added {
                // lines 15–18: the events whose best user was `u`
                for &w in events {
                    if w != e.v && r.event_best[w.index()] == Some(e.u) {
                        r.refresh_event(w);
                    }
                }
            }
        }
        (r.planning, r.traffic)
    }

    fn push(&mut self, e: Entry) {
        self.traffic[0] += 1;
        self.heap.push(e);
    }

    fn refresh_event(&mut self, v: EventId) {
        let mut best: Option<(UserId, (f64, Cost))> = None;
        for u in self.inst.user_ids() {
            if let Some(k) = key(self.inst, &self.flat, &self.planning, v, u) {
                if best.is_none_or(|(bu, bk)| ahead(k, u, bk, bu)) {
                    best = Some((u, k));
                }
            }
        }
        self.gen += 1;
        self.event_gen[v.index()] = self.gen;
        self.event_best[v.index()] = best.map(|(u, _)| u);
        if let Some((u, (ratio, inc))) = best {
            self.push(Entry { ratio, inc, v, u, for_event: true, gen: self.gen });
        }
    }

    fn refresh_user(&mut self, u: UserId) {
        let mut best: Option<(EventId, (f64, Cost))> = None;
        for &v in self.events {
            if let Some(k) = key(self.inst, &self.flat, &self.planning, v, u) {
                if best.is_none_or(|(bv, bk)| ahead(k, v, bk, bv)) {
                    best = Some((v, k));
                }
            }
        }
        self.gen += 1;
        self.user_gen[u.index()] = self.gen;
        if let Some((v, (ratio, inc))) = best {
            self.push(Entry { ratio, inc, v, u, for_event: false, gen: self.gen });
        }
    }
}

/// The events with capacity left, as the `+RG` pass selects them.
fn residual(inst: &Instance, planning: &Planning) -> Vec<EventId> {
    inst.event_ids().filter(|&v| planning.remaining_capacity(inst, v) > 0).collect()
}

/// Asserts an engine run equal to the reference's, planning and heap
/// traffic.
fn assert_same(got: (Planning, Traffic), expect: (Planning, Traffic), what: &str) {
    assert!(got.0 == expect.0, "{what}: planning differs from the reference");
    assert_eq!(got.1, expect.1, "{what}: heap traffic [push, pop, stale] differs");
}

/// Plain RatioGreedy and both `+RG` solvers against the reference.
fn check_solvers(inst: &Instance, threads: usize, what: &str) {
    let events: Vec<EventId> = inst.event_ids().collect();
    let expect = Reference::run(inst, Planning::empty(inst), &events);
    let sink = TraceSink::new();
    let got = at_threads(threads, || solve_with_probe(Algorithm::RatioGreedy, inst, &sink));
    let what_rg = format!("{what}: RatioGreedy at {threads} threads");
    assert_same((got, traffic(&sink)), expect, &what_rg);
    for (base, augmented) in
        [(Algorithm::DeDPO, Algorithm::DeDPORG), (Algorithm::DeGreedy, Algorithm::DeGreedyRG)]
    {
        let base_sink = TraceSink::new();
        let start = solve_with_probe(base, inst, &base_sink);
        let events = residual(inst, &start);
        let expect = Reference::run(inst, start, &events);
        // the augmented solve's traffic minus its base solve's is the pass's
        let sink = TraceSink::new();
        let got = at_threads(threads, || solve_with_probe(augmented, inst, &sink));
        let pass = [0, 1, 2].map(|i| traffic(&sink)[i] - traffic(&base_sink)[i]);
        assert_same((got, pass), expect, &format!("{what}: {augmented} at {threads} threads"));
    }
}

/// `augment_events_with_ratio_greedy` on a random event subset (in
/// random order) over a random sub-planning of DeGreedy's.
fn check_augment(inst: &Instance, seed: u64, threads: usize, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut start = solve(Algorithm::DeGreedy, inst);
    let assigned: Vec<(UserId, EventId)> = start.assignments().collect();
    let keep = rng.gen_range(0.0..1.0);
    for (u, v) in assigned {
        if !rng.gen_bool(keep) {
            start.unassign(u, v);
        }
    }
    let share = rng.gen_range(0.2..1.0);
    let mut events: Vec<EventId> = inst.event_ids().filter(|_| rng.gen_bool(share)).collect();
    rand::seq::SliceRandom::shuffle(&mut events[..], &mut rng);

    let expect = Reference::run(inst, start.clone(), &events);
    let mut got = start;
    let sink = TraceSink::new();
    at_threads(threads, || {
        augment_events_with_ratio_greedy(inst, &mut got, &events, Seed::All, &sink)
    });
    let what = format!("{what}: augment over {} events at {threads} threads", events.len());
    assert_same((got, traffic(&sink)), expect, &what);
}

/// A RatioGreedy planning, edited the ways a delta mutation frees room
/// (a release, a capacity raise, a μ raised from zero on an unassigned
/// pair), then repaired by a pass seeded with exactly the events and
/// users the edits touched: the planning must equal the fully seeded
/// pass's, and the pass must return exactly the pairs it added.
fn check_dirty_seed(inst: &Instance, seed: u64, what: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = inst.clone();
    // zeroed cells, so that the edits below can raise μ from zero
    let mut zeroed = Vec::new();
    for _ in 0..rng.gen_range(0..=inst.num_events() * inst.num_users() / 4) {
        let v = EventId(rng.gen_range(0..inst.num_events() as u32));
        let u = UserId(rng.gen_range(0..inst.num_users() as u32));
        inst.patch_set_mu(v, u, 0.0).expect("μ = 0 is in range");
        zeroed.push((v, u));
    }
    let mut planning = solve(Algorithm::RatioGreedy, &inst);
    let (mut events, mut users) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(1..=4) {
        match rng.gen_range(0..3) {
            0 => {
                let assigned: Vec<(UserId, EventId)> = planning.assignments().collect();
                if let Some(&(u, v)) = assigned.get(rng.gen_range(0..assigned.len().max(1))) {
                    planning.unassign(u, v);
                    events.push(v);
                    users.push(u);
                }
            }
            1 => {
                let v = EventId(rng.gen_range(0..inst.num_events() as u32));
                let capacity = inst.event(v).capacity + rng.gen_range(1..=3u32);
                inst.patch_set_capacity(v, capacity).expect("a raised capacity is positive");
                events.push(v);
            }
            _ => {
                // a zeroed pair at an event with room, which the raise
                // can make valid (μ = 0 pairs are never assigned)
                let open: Vec<(EventId, UserId)> = zeroed
                    .iter()
                    .copied()
                    .filter(|&(v, _)| planning.remaining_capacity(&inst, v) > 0)
                    .collect();
                if let Some(&(v, u)) = open.get(rng.gen_range(0..open.len().max(1))) {
                    inst.patch_set_mu(v, u, rng.gen_range(0.05..1.0)).expect("μ in range");
                    users.push(u);
                }
            }
        }
    }

    let mut expect = planning.clone();
    augment_with_ratio_greedy(&inst, &mut expect);
    let mut got = planning.clone();
    let seed = Seed::Dirty { events: &events, users: &users };
    let mut added =
        augment_events_with_ratio_greedy(&inst, &mut got, &residual(&inst, &planning), seed, &NOOP);
    let what = format!("{what}: {} dirty events, {} dirty users", events.len(), users.len());
    assert!(got == expect, "{what}: the dirty-seeded pass differs from the fully seeded one");
    let mut expect_added: Vec<(UserId, EventId)> =
        got.assignments().filter(|&(u, v)| !planning.schedule(u).contains(v)).collect();
    expect_added.sort_unstable();
    added.sort_unstable();
    assert_eq!(added, expect_added, "{what}: returned pairs are not the pairs added");
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (1usize..30, 1usize..60, 1u32..12, any::<u64>()).prop_map(|(nv, nu, cap, seed)| {
        generate(
            &SyntheticConfig::tiny().with_events(nv).with_users(nu).with_capacity_mean(cap),
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn small_instances_match_the_reference(inst in arb_instance(), seed in any::<u64>()) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        for threads in [1, 4] {
            check_solvers(&inst, threads, "proptest");
            check_augment(&inst, seed, threads, "proptest");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_dirty_seed_repairs_like_the_full_seed(inst in arb_instance(), seed in any::<u64>()) {
        check_dirty_seed(&inst, seed, "proptest");
    }
}

/// Capacities averaging twice the shortest list (so most lists are as
/// long as the capacity) and at least eight users per list entry.
#[test]
fn seeded_instances_with_long_lists_match_the_reference() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for budget_factor in [1.0, 4.0] {
        for seed in 1..=3u64 {
            let cfg = SyntheticConfig::tiny()
                .with_events(24)
                .with_users(480)
                .with_capacity_mean(16)
                .with_budget_factor(budget_factor);
            let inst = generate(&cfg, seed);
            let what = format!("f_b {budget_factor} seed {seed}");
            for threads in [1, 4] {
                check_solvers(&inst, threads, &what);
                check_augment(&inst, seed, threads, &what);
            }
        }
    }
}

/// The Fig. 4 benchmark instances (|V| = 100, |U| = 5000, mean capacity
/// 50, generator seeds 1..=3) at the thread count the environment
/// resolves (`USEP_THREADS`). Too slow for a debug run.
#[test]
#[ignore = "Fig. 4 scale: run in release with --ignored"]
fn fig4_instances_match_the_reference() {
    let _g = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let threads = usep_par::current_threads();
    for seed in 1..=3u64 {
        let inst = generate(&SyntheticConfig::default().with_users(5000), seed);
        let what = format!("fig4 seed {seed}");
        check_solvers(&inst, threads, &what);
        check_augment(&inst, seed, threads, &what);
    }
}
