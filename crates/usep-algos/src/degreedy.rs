//! DeGreedy (Algorithm 5): the two-step framework with `GreedySingle`.
//!
//! DeGreedy keeps the decomposition and `select`-array machinery of
//! [`DeDPO`](crate::DeDPO) but replaces the `O(|V'_r|² b_u)` dynamic
//! program with a `O(|V'_r|²)` ratio-greedy per-user subroutine: events
//! are repeatedly inserted by descending `μ / inc_cost` ratio. The heap
//! `H` holds at most one candidate per *gap region* — the stretch of the
//! end-time order between two consecutively scheduled events — which is
//! exactly the set whose incremental costs an insertion can change
//! (Lemma 3). No approximation guarantee, but much faster and usually
//! within a few percent of DeDPO (cf. Figures 2–4).
//!
//! One deviation from the printed pseudo-code, recorded in DESIGN.md: an
//! insertion shrinks the remaining budget, which can invalidate a heap
//! candidate from a *different* region (whose `inc_cost` is unchanged).
//! We therefore re-check the budget on pop; a stale candidate triggers a
//! rescan of its region for the best still-affordable event. This is
//! strictly safer and preserves the complexity bound.

use crate::augment::augment_with_ratio_greedy_guarded;
use crate::dedp::{decomposed_with_select, Candidate, SingleScheduler};
use crate::{finish_guarded, GuardedSolve, Solver};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use usep_core::{Cost, FlatInstance, Instance, Schedule, UserId};
use usep_guard::Guard;
use usep_trace::{Counter, Probe};

/// DeGreedy (Alg. 5). `with_augment()` yields the paper's DeGreedy+RG.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeGreedy {
    augment: bool,
}

impl DeGreedy {
    /// Plain DeGreedy.
    pub fn new() -> DeGreedy {
        DeGreedy { augment: false }
    }

    /// DeGreedy followed by the RatioGreedy pass over residual capacity
    /// (§4.4) — the paper's DeGreedy+RG.
    pub fn with_augment(self) -> DeGreedy {
        DeGreedy { augment: true }
    }
}

impl Solver for DeGreedy {
    fn name(&self) -> &'static str {
        if self.augment {
            "DeGreedy+RG"
        } else {
            "DeGreedy"
        }
    }

    fn solve_guarded(&self, inst: &Instance, guard: &Guard, probe: &dyn Probe) -> GuardedSolve {
        let mut scheduler = GreedyScheduler { probe, guard };
        let mut planning = decomposed_with_select(inst, &mut scheduler, guard, probe);
        if self.augment && !guard.is_tripped() {
            augment_with_ratio_greedy_guarded(inst, &mut planning, guard, probe);
        }
        GuardedSolve { planning, outcome: finish_guarded(guard, probe) }
    }
}

/// `GreedySingle` as a [`SingleScheduler`] plug-in for the decomposed
/// framework.
pub(crate) struct GreedyScheduler<'p> {
    probe: &'p dyn Probe,
    guard: &'p Guard,
}

impl SingleScheduler for GreedyScheduler<'_> {
    fn schedule(&mut self, flat: &FlatInstance, u: UserId, cands: &[Candidate]) -> Vec<usize> {
        greedy_single_guarded(flat, u, cands, self.guard, self.probe)
    }
}

/// A heap entry: the best valid candidate of the gap region
/// `[lo, hi]` (inclusive candidate-index bounds).
#[derive(Clone, Copy, Debug)]
struct GapCand {
    ratio: f64,
    inc: Cost,
    idx: usize,
    lo: usize,
    hi: usize,
}

impl PartialEq for GapCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GapCand {}
impl Ord for GapCand {
    /// Ratio descending, then inc ascending, then index ascending.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ratio
            .total_cmp(&other.ratio)
            .then_with(|| other.inc.cmp(&self.inc))
            .then_with(|| other.idx.cmp(&self.idx))
    }
}
impl PartialOrd for GapCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `GreedySingle` (Alg. 5) for user `u` over candidates in end-time
/// order (decomposed utilities positive, Lemma 1 pre-applied). Returns
/// chosen candidate indices in time order.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn greedy_single(
    flat: &FlatInstance,
    u: UserId,
    cands: &[Candidate],
    probe: &dyn Probe,
) -> Vec<usize> {
    greedy_single_guarded(flat, u, cands, Guard::none(), probe)
}

/// [`greedy_single`] polling `guard` once per heap pop; the chosen
/// prefix at any stop is a feasible schedule.
pub(crate) fn greedy_single_guarded(
    flat: &FlatInstance,
    u: UserId,
    cands: &[Candidate],
    guard: &Guard,
    probe: &dyn Probe,
) -> Vec<usize> {
    let m = cands.len();
    if m == 0 {
        return Vec::new();
    }
    let budget = flat.budget(u);
    let mut sched = Schedule::new();
    let mut chosen: Vec<usize> = Vec::new(); // ascending candidate indices
    let mut total = Cost::ZERO;
    let mut heap: BinaryHeap<GapCand> = BinaryHeap::new();

    // the best valid candidate within region [lo, hi] against the current
    // schedule
    let scan = |sched: &Schedule, total: Cost, lo: usize, hi: usize| -> Option<GapCand> {
        let mut best: Option<GapCand> = None;
        let hi = hi.min(m - 1);
        for (off, c) in cands[lo..=hi].iter().enumerate() {
            let Some(pos) = sched.insertion_point(flat, c.v) else {
                continue;
            };
            let inc = sched.inc_cost_at(flat, u, c.v, pos);
            if inc.is_infinite() || total.add(inc) > budget {
                if !inc.is_infinite() {
                    probe.count(Counter::BudgetReject, 1);
                }
                continue;
            }
            let ratio = if inc == Cost::ZERO { f64::INFINITY } else { c.mu / inc.as_f64() };
            let entry = GapCand { ratio, inc, idx: lo + off, lo, hi };
            if best.is_none_or(|b| entry > b) {
                best = Some(entry);
            }
        }
        best
    };

    if let Some(first) = scan(&sched, total, 0, m - 1) {
        probe.count(Counter::HeapPush, 1);
        heap.push(first);
    }
    while let Some(c) = heap.pop() {
        if guard.checkpoint() {
            break;
        }
        probe.count(Counter::HeapPop, 1);
        // re-validate against the *current* budget: an insertion into a
        // different region may have consumed it (inc is still exact — the
        // entry's own region cannot have changed while it sat in H)
        let Some(pos) = sched.insertion_point(flat, cands[c.idx].v) else {
            debug_assert!(false, "region invariant violated: position vanished");
            continue;
        };
        let inc = sched.inc_cost_at(flat, u, cands[c.idx].v, pos);
        debug_assert_eq!(inc, c.inc, "inc went stale inside an untouched region");
        if inc.is_infinite() || total.add(inc) > budget {
            probe.count(Counter::HeapPopStale, 1);
            // stale by budget: replace with the region's best affordable
            if let Some(repl) = scan(&sched, total, c.lo, c.hi) {
                probe.count(Counter::HeapPush, 1);
                heap.push(repl);
            }
            continue;
        }
        sched
            .try_insert(flat, u, cands[c.idx].v)
            .expect("validated insertion");
        total = total.add(inc);
        let at = chosen.partition_point(|&x| x < c.idx);
        chosen.insert(at, c.idx);
        // split the region around the inserted candidate (lines 8-17)
        if c.idx > c.lo {
            if let Some(left) = scan(&sched, total, c.lo, c.idx - 1) {
                probe.count(Counter::HeapPush, 1);
                heap.push(left);
            }
        }
        if c.idx < c.hi {
            if let Some(right) = scan(&sched, total, c.idx + 1, c.hi) {
                probe.count(Counter::HeapPush, 1);
                heap.push(right);
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{EventId, InstanceBuilder, Point, TimeInterval};
    use usep_trace::NOOP;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    fn cand(v: EventId, mu: f64) -> Candidate {
        Candidate { v, slot: 0, mu }
    }

    #[test]
    fn empty_candidates() {
        let mut b = InstanceBuilder::new();
        b.event(1, Point::ORIGIN, iv(0, 1));
        let u = b.user(Point::ORIGIN, Cost::new(10));
        let inst = b.build().unwrap();
        assert!(greedy_single(&inst.freeze(), u, &[], &NOOP).is_empty());
    }

    #[test]
    fn takes_all_compatible_affordable_events() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::new(1, 0), iv(0, 10));
        let v1 = b.event(1, Point::new(2, 0), iv(10, 20));
        let v2 = b.event(1, Point::new(3, 0), iv(20, 30));
        let u = b.user(Point::ORIGIN, Cost::new(50));
        for &v in &[v0, v1, v2] {
            b.utility(v, u, 0.5);
        }
        let inst = b.build().unwrap();
        let chosen = greedy_single(
            &inst.freeze(),
            u,
            &[cand(v0, 0.5), cand(v1, 0.5), cand(v2, 0.5)],
            &NOOP,
        );
        assert_eq!(chosen, vec![0, 1, 2]);
    }

    #[test]
    fn budget_staleness_is_rescanned() {
        // u at origin; v_mid is free to attend (at origin), two side
        // events compete for the remaining budget
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(10, 20)); // ratio ∞
        let v1 = b.event(1, Point::new(4, 0), iv(0, 10)); // round trip 8
        let v2 = b.event(1, Point::new(5, 0), iv(20, 30)); // round trip 10
        let u = b.user(Point::ORIGIN, Cost::new(9));
        b.utility(v0, u, 0.5);
        b.utility(v1, u, 0.9);
        b.utility(v2, u, 0.8);
        let inst = b.build().unwrap();
        // candidates in end-time order: v1 [0,10], v0 [10,20], v2 [20,30]
        let chosen =
            greedy_single(&inst.freeze(), u, &[cand(v1, 0.9), cand(v0, 0.5), cand(v2, 0.8)], &NOOP);
        // v0 goes first (infinite ratio, inc 0); then v1 (inc 8 ≤ 9)
        // beats v2 (inc 10 > 9, unaffordable)
        let events: Vec<EventId> = chosen.iter().map(|&i| [v1, v0, v2][i]).collect();
        assert!(events.contains(&v0));
        assert!(events.contains(&v1));
        assert!(!events.contains(&v2));
    }

    #[test]
    fn solver_produces_feasible_plannings() {
        let mut b = InstanceBuilder::new();
        let mut vs = Vec::new();
        for i in 0..7i32 {
            let s = i64::from(i % 3) * 8;
            vs.push(b.event(2, Point::new(i, i % 3), iv(s, s + 7)));
        }
        let mut us = Vec::new();
        for j in 0..6i32 {
            us.push(b.user(Point::new(j % 4, 1), Cost::new(18)));
        }
        for (i, &v) in vs.iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, ((i * 3 + j * 5) % 9) as f64 / 9.0);
            }
        }
        let inst = b.build().unwrap();
        for p in [DeGreedy::new().solve(&inst), DeGreedy::new().with_augment().solve(&inst)] {
            p.validate(&inst).expect("feasible");
        }
    }

    #[test]
    fn augment_never_decreases_omega() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(3, Point::new(2, 0), iv(0, 10));
        let v1 = b.event(3, Point::new(4, 0), iv(10, 20));
        let mut us = Vec::new();
        for j in 0..3i32 {
            us.push(b.user(Point::new(j, 0), Cost::new(30)));
        }
        for (i, &v) in [v0, v1].iter().enumerate() {
            for (j, &u) in us.iter().enumerate() {
                b.utility(v, u, 0.3 + 0.1 * ((i + j) % 3) as f64);
            }
        }
        let inst = b.build().unwrap();
        let base = DeGreedy::new().solve(&inst).omega(&inst);
        let plus = DeGreedy::new().with_augment().solve(&inst).omega(&inst);
        assert!(plus >= base - 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut b = InstanceBuilder::new();
        for i in 0..5i32 {
            b.event(2, Point::new(i * 2, 0), iv(i64::from(i) * 5, i64::from(i) * 5 + 4));
        }
        for j in 0..4i32 {
            b.user(Point::new(j, 1), Cost::new(22));
        }
        for v in 0..5u32 {
            for u in 0..4u32 {
                b.utility(EventId(v), UserId(u), ((v * 4 + u) % 7 + 1) as f64 / 7.0);
            }
        }
        let inst = b.build().unwrap();
        assert_eq!(DeGreedy::new().solve(&inst), DeGreedy::new().solve(&inst));
    }
}
