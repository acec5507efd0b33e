//! The two-step approximation framework of §4 and its DP-based
//! instantiations.
//!
//! **Step 1** decomposes USEP into `|U|` single-user problems via the
//! Local Ratio Theorem: events are split into unit-capacity
//! *pseudo-events* `v_{i,k}` (`k < min(c_v, |U|)`); for each user `u_r` in
//! turn, the best pseudo-event per event (by the decomposed utility
//! `μ^r`) forms the candidate set `V_r`, Lemma 1 prunes events whose
//! round trip alone busts the budget, and a pseudo-polynomial dynamic
//! program (`dp_single`, Alg. 2) finds the utility-optimal feasible
//! schedule. The decomposed utilities are then updated so that a later
//! user only "steals" a pseudo-event when their original utility strictly
//! exceeds the current holder's.
//!
//! **Step 2** resolves multiply-assigned pseudo-events by keeping each
//! with the *last* user that scheduled it, which yields the
//! ½-approximation of Theorem 3.
//!
//! [`DeDP`] implements step 1 with the literal `μ^r` matrix over all
//! pseudo-events × users (`O(|V| |U| max c_v)` memory — the paper keeps
//! it as the strawman its Figures 2–3 measure). [`DeDPO`] replaces the
//! matrix with the `select` array justified by Lemma 2 (the value of
//! `μ^r(v_{i,k}, u_r)` only depends on the last user holding the slot),
//! producing byte-identical plannings with an order of magnitude less
//! memory. Both share `dp_single` and the step-2 logic.

mod dedp_literal;
mod dedpo;
mod dp_single;

pub use dedp_literal::DeDP;
pub use dedpo::DeDPO;
pub(crate) use dedpo::decomposed_with_select;
pub(crate) use dp_single::DpScheduler;

use usep_core::{EventId, FlatInstance, Instance, Planning, Schedule, UserId};

/// A candidate pseudo-event offered to the single-user subproblem:
/// event `v`, the global index of the chosen pseudo-event slot, and the
/// decomposed utility `μ^r(v̂_i, u_r) > 0`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    pub v: EventId,
    pub slot: u32,
    pub mu: f64,
}

/// Strategy for solving the single-user subproblem: given candidates in
/// end-time order, return the indices of the chosen ones (in time order).
///
/// Implemented by the DP of Alg. 2 ([`DpScheduler`]) and the greedy of
/// Alg. 5 (`GreedyScheduler` in [`crate::degreedy`]).
pub(crate) trait SingleScheduler {
    fn schedule(&mut self, flat: &FlatInstance, u: UserId, cands: &[Candidate]) -> Vec<usize>;
}

/// Unit-capacity pseudo-event layout: event `i` owns the global slot
/// indices `offsets[i] .. offsets[i] + caps[i]`, with capacities clamped
/// to `|U|` (line 1 of Alg. 3/4).
#[derive(Clone, Debug)]
pub(crate) struct PseudoLayout {
    offsets: Vec<u32>,
    caps: Vec<u32>,
    total: usize,
}

impl PseudoLayout {
    pub fn new(inst: &Instance) -> PseudoLayout {
        let nu = inst.num_users() as u32;
        let mut offsets = Vec::with_capacity(inst.num_events());
        let mut caps = Vec::with_capacity(inst.num_events());
        let mut total = 0u32;
        for e in inst.events() {
            offsets.push(total);
            let c = e.capacity.min(nu);
            caps.push(c);
            total = total
                .checked_add(c)
                .expect("pseudo-event count overflows u32");
        }
        PseudoLayout { offsets, caps, total: total as usize }
    }

    /// Total number of pseudo-events `Σ min(c_v, |U|)`.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Bytes the literal `μ^r` matrix of [`DeDP`] occupies for `nu`
    /// users — what DeDP reserves against its guard's memory ceiling
    /// before it allocates the matrix.
    #[inline]
    pub fn mu_matrix_bytes(&self, nu: usize) -> usize {
        self.total
            .saturating_mul(nu)
            .saturating_mul(std::mem::size_of::<f64>())
    }

    /// Global slot range of event `v`.
    #[inline]
    pub fn slots(&self, v: EventId) -> std::ops::Range<usize> {
        let o = self.offsets[v.index()] as usize;
        o..o + self.caps[v.index()] as usize
    }
}

/// Lemma 1 filter: an event whose lone round trip exceeds the budget can
/// never appear in a valid schedule (triangle inequality).
#[inline]
pub(crate) fn passes_lemma1(flat: &FlatInstance, u: UserId, v: EventId) -> bool {
    flat.round_trip(u, v) <= flat.budget(u)
}

/// The utility-optimal feasible schedule for a *single* user (Algorithm
/// 2 as a standalone tool): given `(event, utility)` candidates, returns
/// the chosen events in time order and their total utility. Candidates
/// with non-positive utility or an unaffordable round trip (Lemma 1) are
/// ignored; capacity is not a single-user concern.
///
/// This is the paper's `DPSingle` exposed directly — useful on its own
/// as an optimal personal day-planner, and as the engine of the
/// capacity-relaxed upper bound in [`crate::bounds`].
pub fn optimal_user_schedule(
    inst: &Instance,
    u: UserId,
    candidates: &[(EventId, f64)],
) -> (Vec<EventId>, f64) {
    let mut ws = DpScheduler::new();
    optimal_user_schedule_with(&mut ws, &inst.freeze(), u, candidates)
}

/// [`optimal_user_schedule`] against a caller-owned workspace, so a
/// loop over many users (the capacity-relaxed bound's hot path) reuses
/// one DP workspace instead of reallocating it per user.
pub(crate) fn optimal_user_schedule_with(
    ws: &mut DpScheduler<'_>,
    flat: &FlatInstance,
    u: UserId,
    candidates: &[(EventId, f64)],
) -> (Vec<EventId>, f64) {
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    idx.sort_by_key(|&i| {
        let v = candidates[i].0;
        (flat.event_end(v), flat.event_start(v), v)
    });
    let cands: Vec<Candidate> = idx
        .into_iter()
        .filter_map(|i| {
            let (v, mu) = candidates[i];
            if mu > 0.0 && passes_lemma1(flat, u, v) {
                Some(Candidate { v, slot: 0, mu })
            } else {
                None
            }
        })
        .collect();
    let chosen = ws.schedule(flat, u, &cands);
    let score = chosen.iter().map(|&c| cands[c].mu).sum();
    (chosen.into_iter().map(|c| cands[c].v).collect(), score)
}

/// Step 2 of the framework, shared by every decomposed algorithm: each
/// pseudo-event is kept by the **last** user whose step-1 schedule
/// contained it, then per-user event sets are ordered by time into final
/// schedules.
///
/// `holder[p]` is `0` for an unassigned slot, else `r + 1` where `u_r` is
/// the last holder — exactly the DeDPO `select` array; [`DeDP`] reduces
/// its removal scan to the same representation before calling this.
pub(crate) fn build_planning_from_holders(
    inst: &Instance,
    layout: &PseudoLayout,
    holder: &[u32],
) -> Planning {
    debug_assert_eq!(holder.len(), layout.total());
    let mut per_user: Vec<Vec<EventId>> = vec![Vec::new(); inst.num_users()];
    for v in inst.event_ids() {
        for p in layout.slots(v) {
            let h = holder[p];
            if h > 0 {
                per_user[(h - 1) as usize].push(v);
            }
        }
    }
    let schedules = per_user
        .into_iter()
        .map(|mut evs| {
            // a user's kept events are a subset of one feasible schedule,
            // so sorting by start time restores the original order
            evs.sort_by_key(|&v| {
                let t = inst.event(v).time;
                (t.start(), t.end(), v)
            });
            Schedule::from_time_ordered(inst, evs)
        })
        .collect();
    Planning::from_schedules(inst, schedules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usep_core::{Cost, InstanceBuilder, Point, TimeInterval};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn pseudo_layout_clamps_to_num_users() {
        let mut b = InstanceBuilder::new();
        b.event(5, Point::ORIGIN, iv(0, 1));
        b.event(1_000_000, Point::ORIGIN, iv(2, 3));
        b.event(1, Point::ORIGIN, iv(4, 5));
        for _ in 0..3 {
            b.user(Point::ORIGIN, Cost::new(10));
        }
        let inst = b.build().unwrap();
        let layout = PseudoLayout::new(&inst);
        assert_eq!(layout.total(), 3 + 3 + 1);
        assert_eq!(layout.slots(EventId(0)), 0..3);
        assert_eq!(layout.slots(EventId(1)), 3..6);
        assert_eq!(layout.slots(EventId(2)), 6..7);
    }

    #[test]
    fn lemma1_filter() {
        let mut b = InstanceBuilder::new();
        let v = b.event(1, Point::new(10, 0), iv(0, 1));
        let u0 = b.user(Point::ORIGIN, Cost::new(20)); // round trip exactly 20
        let u1 = b.user(Point::ORIGIN, Cost::new(19));
        b.utility(v, u0, 0.5);
        b.utility(v, u1, 0.5);
        let flat = b.build().unwrap().freeze();
        assert!(passes_lemma1(&flat, u0, v));
        assert!(!passes_lemma1(&flat, u1, v));
    }

    #[test]
    fn build_planning_orders_events_by_time() {
        let mut b = InstanceBuilder::new();
        let v0 = b.event(1, Point::ORIGIN, iv(10, 20));
        let v1 = b.event(1, Point::ORIGIN, iv(0, 5));
        let u = b.user(Point::ORIGIN, Cost::new(100));
        b.utility(v0, u, 0.5);
        b.utility(v1, u, 0.5);
        let inst = b.build().unwrap();
        let layout = PseudoLayout::new(&inst);
        let holder = vec![1u32, 1u32]; // both events held by u0
        let p = build_planning_from_holders(&inst, &layout, &holder);
        assert_eq!(p.schedule(u).events(), &[v1, v0]);
        assert!(p.validate(&inst).is_ok());
    }
}
